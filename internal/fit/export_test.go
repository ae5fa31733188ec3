package fit

// DeclaredAggregates returns, for every declared pass, the constructor
// of its exec.Aggregate[T] (boxed) at a gob-encoded argument.
func DeclaredAggregates() map[string]func(sh *Shard, arg []byte) (any, error) {
	out := make(map[string]func(sh *Shard, arg []byte) (any, error), len(passes))
	for name, p := range passes {
		out[name] = p.aggregate
	}
	return out
}
