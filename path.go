package lazyxml

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/twig"
)

// Tuple is one complete match of a multi-step path: one element per
// step, outermost first, as returned by QueryTwig.
type Tuple = twig.Tuple

// QueryTwig evaluates a path expression holistically with PathStack
// (Bruno et al., SIGMOD 2002): instead of a pipeline of binary joins, all
// steps are matched in one synchronized pass, and every result is a full
// tuple binding one element per step. Element positions in the tuples
// are global.
func (db *DB) QueryTwig(path string) ([]Tuple, error) {
	p, err := ParsePath(path)
	if err != nil {
		return nil, err
	}
	v := db.store.AcquireView()
	defer v.Release()
	return queryTwigOn(v, p)
}

// queryTwigOn runs PathStack over a parsed path against a pinned view.
func queryTwigOn(v *core.View, p Path) ([]Tuple, error) {
	steps := make([]twig.Step, 0, 1+len(p.Steps))
	steps = append(steps, twig.Step{Nodes: v.GlobalElements(p.First)})
	for _, st := range p.Steps {
		steps = append(steps, twig.Step{Axis: st.Axis, Nodes: v.GlobalElements(st.Tag)})
	}
	return twig.PathStack(steps)
}

// Path is a parsed path expression: a first tag followed by axis steps.
type Path struct {
	First string
	Steps []PathStep
}

// PathStep is one step of a path expression.
type PathStep struct {
	Axis Axis
	Tag  string
}

// String renders the path back to its textual form.
func (p Path) String() string {
	var sb strings.Builder
	sb.WriteString(p.First)
	for _, s := range p.Steps {
		if s.Axis == Descendant {
			sb.WriteString("//")
		} else {
			sb.WriteString("/")
		}
		sb.WriteString(s.Tag)
	}
	return sb.String()
}

// ParsePath parses expressions of the form "a//b/c". A leading "/" or
// "//" is accepted and ignored (the first step matches elements with the
// tag anywhere in the document, as in the paper's experiments).
func ParsePath(expr string) (Path, error) {
	s := strings.TrimSpace(expr)
	s = strings.TrimPrefix(s, "//")
	s = strings.TrimPrefix(s, "/")
	if s == "" {
		return Path{}, fmt.Errorf("lazyxml: empty path expression %q", expr)
	}
	var p Path
	i := 0
	readTag := func() (string, error) {
		start := i
		for i < len(s) && s[i] != '/' {
			i++
		}
		tag := s[start:i]
		if tag == "" || strings.ContainsAny(tag, " \t<>[]='\"") {
			// Bracketed predicates belong to ParsePattern/QueryPattern.
			return "", fmt.Errorf("lazyxml: invalid tag %q in path %q", tag, expr)
		}
		return tag, nil
	}
	tag, err := readTag()
	if err != nil {
		return Path{}, err
	}
	p.First = tag
	for i < len(s) {
		axis := Child
		if strings.HasPrefix(s[i:], "//") {
			axis = Descendant
			i += 2
		} else {
			i++
		}
		tag, err := readTag()
		if err != nil {
			return Path{}, err
		}
		p.Steps = append(p.Steps, PathStep{Axis: axis, Tag: tag})
	}
	return p, nil
}
