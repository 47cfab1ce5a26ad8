package csp

// Test-only propagators. The package ships only the constraints a
// placement solve posts; the search tests model their oracles (n-queens,
// Langford pairs, random minimisation instances) on these instead.

// notEqualOffset enforces x != y + c.
type notEqualOffset struct {
	x, y *Var
	c    int
}

// notEqual posts x != y + c.
func notEqual(st *Store, x, y *Var, c int) {
	st.Post(&notEqualOffset{x, y, c}, x, y)
}

// allDifferent posts pairwise x != y over vars: forward checking, so
// an assigned value is pruned from every other variable.
func allDifferent(st *Store, vars ...*Var) {
	for i := range vars {
		for j := i + 1; j < len(vars); j++ {
			notEqual(st, vars[i], vars[j], 0)
		}
	}
}

// Name implements Named.
func (p *notEqualOffset) Name() string { return "csp.not-equal" }

// CloneFor implements Clonable.
func (p *notEqualOffset) CloneFor(ctx *CloneCtx) Propagator {
	return &notEqualOffset{ctx.Var(p.x), ctx.Var(p.y), p.c}
}

func (p *notEqualOffset) Propagate(st *Store) error {
	if v, ok := p.y.dom.Singleton(); ok {
		if err := st.Remove(p.x, v+p.c); err != nil {
			return err
		}
	}
	if v, ok := p.x.dom.Singleton(); ok {
		if err := st.Remove(p.y, v-p.c); err != nil {
			return err
		}
	}
	return nil
}

// countingProp counts invocations and optionally prunes.
type countingProp struct {
	runs  int
	prune func(st *Store) error
}

func (p *countingProp) Propagate(st *Store) error {
	p.runs++
	if p.prune != nil {
		return p.prune(st)
	}
	return nil
}
