package lint

// All returns every amglint analyzer in stable order: the five
// repo-contract analyzers plus nilderef, which stands in for x/tools'
// nilness in the offline build. Lock copies need no stand-in: stock
// vet's copylocks pass already runs in `go vet ./...`.
func All() []*Analyzer {
	return []*Analyzer{
		HotAlloc,
		DetOrder,
		CtxPoll,
		SentinelIs,
		AtomicField,
		NilDeref,
	}
}
