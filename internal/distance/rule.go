package distance

import (
	"fmt"
	"strings"

	"github.com/topk-er/adalsh/internal/record"
)

// Rule decides whether two records refer to the same entity. The
// filtering stage uses rules in two ways: the pairwise computation
// function P evaluates Match directly, and the transitive hashing
// functions derive their LSH scheme structure from the rule's shape
// (Section 3 and Appendix C of the paper).
type Rule interface {
	// Match reports whether the two records are considered a match.
	Match(a, b *record.Record) bool
	// String renders the rule for reports.
	String() string
}

// Threshold is the simplest rule: a single field's distance must not
// exceed MaxDistance (the paper's d_thr).
type Threshold struct {
	// Field indexes the record field the rule applies to.
	Field int
	// Metric computes the field distance.
	Metric Metric
	// MaxDistance is the normalized distance threshold d_thr.
	MaxDistance float64
}

// Match implements Rule.
func (t Threshold) Match(a, b *record.Record) bool {
	return t.Metric.Distance(a.Fields[t.Field], b.Fields[t.Field]) <= t.MaxDistance
}

// String implements Rule.
func (t Threshold) String() string {
	return fmt.Sprintf("d_%s(f%d) <= %.4f", t.Metric.Name(), t.Field, t.MaxDistance)
}

// And matches when every sub-rule matches (Appendix C.1).
type And []Rule

// Match implements Rule.
func (r And) Match(a, b *record.Record) bool {
	for _, sub := range r {
		if !sub.Match(a, b) {
			return false
		}
	}
	return true
}

// String implements Rule.
func (r And) String() string { return join(r, " AND ") }

// Or matches when at least one sub-rule matches (Appendix C.2).
type Or []Rule

// Match implements Rule.
func (r Or) Match(a, b *record.Record) bool {
	for _, sub := range r {
		if sub.Match(a, b) {
			return true
		}
	}
	return false
}

// String implements Rule.
func (r Or) String() string { return join(r, " OR ") }

func join(rules []Rule, sep string) string {
	parts := make([]string, len(rules))
	for i, r := range rules {
		parts[i] = "(" + r.String() + ")"
	}
	return strings.Join(parts, sep)
}

// WeightedAverage matches when the weighted average of the per-field
// distances does not exceed MaxDistance (Appendix C.3). Weights must
// sum to 1.
type WeightedAverage struct {
	// Fields indexes the record fields involved.
	Fields []int
	// Metrics holds the per-field metrics, parallel to Fields.
	Metrics []Metric
	// Weights holds the per-field weights alpha_i, parallel to Fields;
	// they must be positive and sum to 1.
	Weights []float64
	// MaxDistance is the threshold on the weighted average distance.
	MaxDistance float64
}

// Validate checks the structural constraints on the rule.
func (r WeightedAverage) Validate() error {
	if len(r.Fields) == 0 || len(r.Fields) != len(r.Metrics) || len(r.Fields) != len(r.Weights) {
		return fmt.Errorf("distance: weighted average rule needs parallel non-empty fields/metrics/weights, got %d/%d/%d",
			len(r.Fields), len(r.Metrics), len(r.Weights))
	}
	sum := 0.0
	for _, w := range r.Weights {
		if w <= 0 {
			return fmt.Errorf("distance: weighted average rule has non-positive weight %g", w)
		}
		sum += w
	}
	if sum < 1-1e-9 || sum > 1+1e-9 {
		return fmt.Errorf("distance: weighted average rule weights sum to %g, want 1", sum)
	}
	return nil
}

// Distance returns the weighted average distance between two records.
func (r WeightedAverage) Distance(a, b *record.Record) float64 {
	d := 0.0
	for i, f := range r.Fields {
		d += r.Weights[i] * r.Metrics[i].Distance(a.Fields[f], b.Fields[f])
	}
	return d
}

// Match implements Rule.
func (r WeightedAverage) Match(a, b *record.Record) bool {
	return r.Distance(a, b) <= r.MaxDistance
}

// String implements Rule.
func (r WeightedAverage) String() string {
	parts := make([]string, len(r.Fields))
	for i, f := range r.Fields {
		parts[i] = fmt.Sprintf("%.2f*d_%s(f%d)", r.Weights[i], r.Metrics[i].Name(), f)
	}
	return fmt.Sprintf("%s <= %.4f", strings.Join(parts, " + "), r.MaxDistance)
}

// CheckFields reports whether records with these fields can be
// compared under r: every field the rule reads must exist and have the
// kind its metric measures. Match panics on records that fail it.
func CheckFields(r Rule, fields []record.Field) error {
	check := func(f int, m Metric) error {
		if f < 0 || f >= len(fields) {
			return fmt.Errorf("distance: rule reads field %d, record has %d fields", f, len(fields))
		}
		if k := fields[f].Kind(); k != m.FieldKind() {
			return fmt.Errorf("distance: rule measures field %d with %s, which needs a %v field, record has a %v", f, m.Name(), m.FieldKind(), k)
		}
		return nil
	}
	switch r := r.(type) {
	case Threshold:
		return check(r.Field, r.Metric)
	case And:
		for _, sub := range r {
			if err := CheckFields(sub, fields); err != nil {
				return err
			}
		}
	case Or:
		for _, sub := range r {
			if err := CheckFields(sub, fields); err != nil {
				return err
			}
		}
	case WeightedAverage:
		for i, f := range r.Fields {
			if i < len(r.Metrics) {
				if err := check(f, r.Metrics[i]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// WithJaccardOPH returns a copy of the rule with every Jaccard metric
// switched to the one-permutation signature family (Jaccard{OPH:
// true}). Match semantics are identical — only the hash family the
// planner builds for the rule's set leaves changes. Rules of unknown
// shape are returned unchanged.
func WithJaccardOPH(r Rule) Rule {
	switch r := r.(type) {
	case Threshold:
		if m, ok := r.Metric.(Jaccard); ok {
			m.OPH = true
			r.Metric = m
		}
		return r
	case And:
		out := make(And, len(r))
		for i, sub := range r {
			out[i] = WithJaccardOPH(sub)
		}
		return out
	case Or:
		out := make(Or, len(r))
		for i, sub := range r {
			out[i] = WithJaccardOPH(sub)
		}
		return out
	case WeightedAverage:
		ms := make([]Metric, len(r.Metrics))
		copy(ms, r.Metrics)
		for i, m := range ms {
			if j, ok := m.(Jaccard); ok {
				j.OPH = true
				ms[i] = j
			}
		}
		r.Metrics = ms
		return r
	}
	return r
}
