package lazyxml

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/twig"
)

// Pattern is a parsed twig pattern: a spine path whose steps may carry
// existential predicates, e.g.
//
//	person[profile//interest]//watches/watch
//
// matches watch elements under a watches child of a person that has at
// least one interest inside a profile. Predicates filter; only the spine
// is returned in the result tuples.
type Pattern struct {
	Spine []PatternStep
}

// PatternStep is one spine step.
type PatternStep struct {
	Axis  Axis // relationship to the previous spine step (ignored for the first)
	Tag   string
	Preds []PredPath
}

// PredPath is one bracketed predicate: a linear path anchored at its
// spine step, optionally ending in a value-equality test on the last
// step ([name='Ann']). The first step's axis is Child for "[b...]" and
// Descendant for "[//b...]", matching XPath intuition.
type PredPath struct {
	Steps    []PathStep
	Value    string // equality value for the last step
	HasValue bool
}

// String renders the pattern back to its textual form.
func (p Pattern) String() string {
	var sb strings.Builder
	for i, st := range p.Spine {
		if i > 0 {
			if st.Axis == Descendant {
				sb.WriteString("//")
			} else {
				sb.WriteString("/")
			}
		}
		sb.WriteString(st.Tag)
		for _, pr := range st.Preds {
			sb.WriteString("[")
			for j, ps := range pr.Steps {
				if j > 0 || ps.Axis == Descendant {
					if ps.Axis == Descendant {
						sb.WriteString("//")
					} else {
						sb.WriteString("/")
					}
				}
				sb.WriteString(ps.Tag)
			}
			if pr.HasValue {
				sb.WriteString("='")
				sb.WriteString(pr.Value)
				sb.WriteString("'")
			}
			sb.WriteString("]")
		}
	}
	return sb.String()
}

// ParsePattern parses a twig pattern expression: a path whose steps may
// be followed by one or more [predicate] groups holding linear paths.
func ParsePattern(expr string) (Pattern, error) {
	s := strings.TrimSpace(expr)
	s = strings.TrimPrefix(s, "//")
	s = strings.TrimPrefix(s, "/")
	if s == "" {
		return Pattern{}, fmt.Errorf("lazyxml: empty pattern %q", expr)
	}
	var pat Pattern
	i := 0
	readTag := func() (string, error) {
		start := i
		for i < len(s) && s[i] != '/' && s[i] != '[' && s[i] != ']' && s[i] != '=' {
			i++
		}
		tag := s[start:i]
		if tag == "" || strings.ContainsAny(tag, " \t<>'\"") {
			return "", fmt.Errorf("lazyxml: invalid tag %q in pattern %q", tag, expr)
		}
		return tag, nil
	}
	readAxis := func() (Axis, error) {
		if strings.HasPrefix(s[i:], "//") {
			i += 2
			return Descendant, nil
		}
		if i < len(s) && s[i] == '/' {
			i++
			return Child, nil
		}
		return 0, fmt.Errorf("lazyxml: expected '/' or '//' at %q in pattern %q", s[i:], expr)
	}
	readPred := func() (PredPath, error) {
		// s[i] == '['
		i++
		var pr PredPath
		axis := Child
		if strings.HasPrefix(s[i:], "//") {
			axis = Descendant
			i += 2
		} else if i < len(s) && s[i] == '/' {
			i++
		}
		for {
			tag, err := readTag()
			if err != nil {
				return pr, err
			}
			pr.Steps = append(pr.Steps, PathStep{Axis: axis, Tag: tag})
			if i < len(s) && s[i] == '=' {
				// Value equality on the (necessarily last) step.
				i++
				if i >= len(s) || (s[i] != '\'' && s[i] != '"') {
					return pr, fmt.Errorf("lazyxml: predicate value must be quoted in %q", expr)
				}
				quote := s[i]
				i++
				start := i
				for i < len(s) && s[i] != quote {
					i++
				}
				if i >= len(s) {
					return pr, fmt.Errorf("lazyxml: unterminated predicate value in %q", expr)
				}
				pr.Value = s[start:i]
				pr.HasValue = true
				i++
				if i >= len(s) || s[i] != ']' {
					return pr, fmt.Errorf("lazyxml: expected ']' after predicate value in %q", expr)
				}
				i++
				return pr, nil
			}
			if i < len(s) && s[i] == ']' {
				i++
				return pr, nil
			}
			if i >= len(s) {
				return pr, fmt.Errorf("lazyxml: unterminated predicate in %q", expr)
			}
			if s[i] == '[' {
				return pr, fmt.Errorf("lazyxml: nested predicates are not supported in %q", expr)
			}
			axis, err = readAxis()
			if err != nil {
				return pr, err
			}
		}
	}

	axis := Child
	for first := true; ; first = false {
		tag, err := readTag()
		if err != nil {
			return Pattern{}, err
		}
		step := PatternStep{Axis: axis, Tag: tag}
		for i < len(s) && s[i] == '[' {
			pr, err := readPred()
			if err != nil {
				return Pattern{}, err
			}
			step.Preds = append(step.Preds, pr)
		}
		pat.Spine = append(pat.Spine, step)
		_ = first
		if i >= len(s) {
			return pat, nil
		}
		if s[i] == ']' {
			return Pattern{}, fmt.Errorf("lazyxml: unbalanced ']' in %q", expr)
		}
		axis, err = readAxis()
		if err != nil {
			return Pattern{}, err
		}
	}
}

// QueryPattern evaluates a twig pattern: the spine is matched
// holistically with PathStack and each predicate filters its spine step
// with an existential semi-join (the element qualifies iff at least one
// predicate-path match is rooted at it). Results are complete spine
// tuples with global positions.
func (db *DB) QueryPattern(expr string) ([]Tuple, error) {
	pat, err := ParsePattern(expr)
	if err != nil {
		return nil, err
	}
	// One snapshot view for spine and predicates: every stream the
	// holistic match consumes comes from the same generation.
	v := db.store.AcquireView()
	defer v.Release()
	// Spine streams.
	steps := make([]twig.Step, len(pat.Spine))
	for i, st := range pat.Spine {
		steps[i] = twig.Step{Axis: st.Axis, Nodes: v.GlobalElements(st.Tag)}
	}
	// Predicate filters: per spine step, the set of qualifying element
	// start offsets (global starts are unique element identities).
	for i, st := range pat.Spine {
		if len(st.Preds) == 0 {
			continue
		}
		allowed, err := predAllowedOn(v, st.Tag, st.Preds)
		if err != nil {
			return nil, err
		}
		kept := steps[i].Nodes[:0:0]
		for _, nd := range steps[i].Nodes {
			if allowed[nd.Start] {
				kept = append(kept, nd)
			}
		}
		steps[i].Nodes = kept
	}
	return twig.PathStack(steps)
}

// CountPattern returns the number of matches of the twig pattern.
func (db *DB) CountPattern(expr string) (int, error) {
	ts, err := db.QueryPattern(expr)
	if err != nil {
		return 0, err
	}
	return len(ts), nil
}

// predAllowedOn computes the set of global start offsets of tag-elements
// satisfying every predicate, against a pinned view.
func predAllowedOn(v *core.View, tag string, preds []PredPath) (map[int]bool, error) {
	var allowed map[int]bool
	anchors := v.GlobalElements(tag)
	for _, pr := range preds {
		steps := make([]twig.Step, 0, 1+len(pr.Steps))
		steps = append(steps, twig.Step{Nodes: anchors})
		for j, ps := range pr.Steps {
			if pr.HasValue && j == len(pr.Steps)-1 {
				nodes, err := v.ValueElements(ps.Tag, pr.Value)
				if err != nil {
					return nil, err
				}
				steps = append(steps, twig.Step{Axis: ps.Axis, Nodes: nodes})
				continue
			}
			steps = append(steps, twig.Step{Axis: ps.Axis, Nodes: v.GlobalElements(ps.Tag)})
		}
		tuples, err := twig.PathStack(steps)
		if err != nil {
			return nil, err
		}
		found := map[int]bool{}
		for _, tu := range tuples {
			found[tu[0].Start] = true
		}
		if allowed == nil {
			allowed = found
		} else {
			for k := range allowed {
				if !found[k] {
					delete(allowed, k)
				}
			}
		}
	}
	if allowed == nil {
		allowed = map[int]bool{}
	}
	return allowed, nil
}
