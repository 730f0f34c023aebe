package pattern

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// This file implements query parameterization for pattern predicates
// ($name slots in attribute values) and the canonical binary encoding the
// prepared-query fingerprint is built over. Parameter slots are part of a
// pattern's identity; the values bound to them are not.

// HasParams reports whether any predicate operand is an unbound $name slot.
func (p *Pattern) HasParams() bool {
	for _, pred := range p.preds {
		if pred.L.isParam() || pred.R.isParam() {
			return true
		}
	}
	return false
}

// ParamNames returns the sorted, deduplicated names of the pattern's
// parameter slots (empty for a fully bound pattern).
func (p *Pattern) ParamNames() []string {
	seen := map[string]bool{}
	var out []string
	for _, pred := range p.preds {
		for _, o := range []Operand{pred.L, pred.R} {
			if o.isParam() && !seen[o.ParamName] {
				seen[o.ParamName] = true
				out = append(out, o.ParamName)
			}
		}
	}
	sort.Strings(out)
	return out
}

// BindParams substitutes parameter slots with constants from vals,
// returning a new pattern safe to match. A pattern without slots is
// returned unchanged (no copy). Missing values are an error; extra entries
// in vals are ignored.
func (p *Pattern) BindParams(vals map[string]string) (*Pattern, error) {
	if !p.HasParams() {
		return p, nil
	}
	bind := func(o Operand) (Operand, error) {
		if !o.isParam() {
			return o, nil
		}
		v, ok := vals[o.ParamName]
		if !ok {
			return o, fmt.Errorf("pattern %s: missing parameter $%s", p.Name, o.ParamName)
		}
		return Const(v), nil
	}
	preds := make([]Predicate, len(p.preds))
	for i, pred := range p.preds {
		l, err := bind(pred.L)
		if err != nil {
			return nil, err
		}
		r, err := bind(pred.R)
		if err != nil {
			return nil, err
		}
		preds[i] = Predicate{Op: pred.Op, L: l, R: r}
	}
	b := &Pattern{
		Name:     p.Name,
		nodes:    p.nodes,
		edges:    p.edges,
		preds:    preds,
		subs:     p.subs,
		varIndex: p.varIndex,
		adj:      p.adj,
	}
	return b, nil
}

// AppendCanonical appends a deterministic binary encoding of the pattern's
// structure to dst: nodes (variable, label) in index order, edges in
// declaration order, predicates in declaration order, and subpatterns in
// sorted-name order. Parameter slots encode by name only — two patterns
// differing only in bound values encode identically, which is exactly what
// the prepared-query fingerprint needs.
func (p *Pattern) AppendCanonical(dst []byte) []byte {
	var num [binary.MaxVarintLen64]byte
	putInt := func(v int) {
		n := binary.PutVarint(num[:], int64(v))
		dst = append(dst, num[:n]...)
	}
	putStr := func(s string) {
		putInt(len(s))
		dst = append(dst, s...)
	}
	putOperand := func(o Operand) {
		switch {
		case o.Node >= 0:
			dst = append(dst, 'n')
			putInt(o.Node)
			putStr(o.Attr)
		case o.EdgeFrom >= 0:
			dst = append(dst, 'e')
			putInt(o.EdgeFrom)
			putInt(o.EdgeTo)
			putStr(o.Attr)
		case o.isParam():
			dst = append(dst, '$')
			putStr(o.ParamName)
		default:
			dst = append(dst, 'c')
			putStr(o.Const)
		}
	}
	putStr(p.Name)
	putInt(len(p.nodes))
	for _, n := range p.nodes {
		putStr(n.Var)
		putStr(n.Label)
	}
	putInt(len(p.edges))
	for _, e := range p.edges {
		putInt(e.From)
		putInt(e.To)
		flags := byte(0)
		if e.Directed {
			flags |= 1
		}
		if e.Negated {
			flags |= 2
		}
		dst = append(dst, flags)
	}
	putInt(len(p.preds))
	for _, pred := range p.preds {
		putInt(int(pred.Op))
		putOperand(pred.L)
		putOperand(pred.R)
	}
	names := p.SubpatternNames()
	putInt(len(names))
	for _, name := range names {
		putStr(name)
		putInt(len(p.subs[name]))
		for _, idx := range p.subs[name] {
			putInt(idx)
		}
	}
	return dst
}
