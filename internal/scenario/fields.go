package scenario

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"time"

	"occamy/internal/experiments"
	"occamy/internal/sim"
)

// Spec field access by path
//
// Sweeps address spec fields with dotted, case-insensitive paths:
//
//	policy.alpha
//	topology.hosts
//	workloads[1].load
//	duration
//
// SetField parses the string value per the field's type (durations accept
// Go syntax: "2ms", "150us"), so the CLI can sweep any spec field without
// per-field code.

// SetField assigns value (parsed per the field's type) to the path inside
// spec.
func SetField(spec *Spec, path, value string) error {
	v, err := resolve(reflect.ValueOf(spec).Elem(), path)
	if err != nil {
		return err
	}
	return assign(v, path, value)
}

// resolve walks a dotted path (with optional [i] indexing) to a settable
// reflect.Value.
func resolve(v reflect.Value, path string) (reflect.Value, error) {
	for _, part := range strings.Split(path, ".") {
		name := part
		index := -1
		if i := strings.IndexByte(part, '['); i >= 0 {
			if !strings.HasSuffix(part, "]") {
				return v, fmt.Errorf("scenario: malformed index in %q", part)
			}
			n, err := strconv.Atoi(part[i+1 : len(part)-1])
			if err != nil {
				return v, fmt.Errorf("scenario: malformed index in %q", part)
			}
			name, index = part[:i], n
		}
		// Optional blocks are pointers (Spec.Faults, its profiles): step
		// through, allocating on the way so a sweep can set a field in a
		// block the base spec leaves nil.
		for v.Kind() == reflect.Pointer {
			if v.IsNil() {
				if !v.CanSet() {
					return v, fmt.Errorf("scenario: nil %s in path %q", v.Type(), path)
				}
				v.Set(reflect.New(v.Type().Elem()))
			}
			v = v.Elem()
		}
		if v.Kind() != reflect.Struct {
			return v, fmt.Errorf("scenario: %q is not a struct field path", path)
		}
		field := v.FieldByNameFunc(func(f string) bool { return fieldNameMatch(f, name) })
		if !field.IsValid() {
			return v, fmt.Errorf("scenario: no field %q in %s", name, v.Type())
		}
		v = field
		if index >= 0 {
			if v.Kind() != reflect.Slice {
				return v, fmt.Errorf("scenario: field %q is not a slice", name)
			}
			if index >= v.Len() {
				return v, fmt.Errorf("scenario: index %d out of range for %q (len %d)", index, name, v.Len())
			}
			v = v.Index(index)
		}
	}
	if !v.CanSet() {
		return v, fmt.Errorf("scenario: field %q is not settable", path)
	}
	return v, nil
}

// fieldNameMatch compares a Go field name against a path segment
// case-insensitively with dashes and underscores stripped, so paths can
// use the JSON spelling: "host-leaf" and "loss_prob" match HostLeaf and
// LossProb.
func fieldNameMatch(field, name string) bool {
	strip := func(s string) string {
		return strings.Map(func(r rune) rune {
			if r == '-' || r == '_' {
				return -1
			}
			return r
		}, s)
	}
	return strings.EqualFold(strip(field), strip(name))
}

var durationType = reflect.TypeOf(sim.Duration(0))

func assign(v reflect.Value, path, value string) error {
	// sim.Duration fields take Go duration syntax ("150us", "2ms").
	if v.Type() == durationType {
		d, err := time.ParseDuration(value)
		if err != nil {
			return fmt.Errorf("scenario: %s: %w", path, err)
		}
		v.SetInt(d.Nanoseconds())
		return nil
	}
	switch v.Kind() {
	case reflect.String:
		v.SetString(value)
	case reflect.Bool:
		b, err := strconv.ParseBool(value)
		if err != nil {
			return fmt.Errorf("scenario: %s: %w", path, err)
		}
		v.SetBool(b)
	case reflect.Int, reflect.Int64:
		n, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			// Accept float syntax for int fields ("2e6" buffer sizes).
			f, ferr := strconv.ParseFloat(value, 64)
			if ferr != nil {
				return fmt.Errorf("scenario: %s: %w", path, err)
			}
			n = int64(f)
		}
		v.SetInt(n)
	case reflect.Uint64:
		n, err := strconv.ParseUint(value, 10, 64)
		if err != nil {
			return fmt.Errorf("scenario: %s: %w", path, err)
		}
		v.SetUint(n)
	case reflect.Float64:
		f, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return fmt.Errorf("scenario: %s: %w", path, err)
		}
		v.SetFloat(f)
	default:
		return fmt.Errorf("scenario: field %q has unsupported type %s", path, v.Type())
	}
	return nil
}

// SweepAxis is one swept field: a path and its values.
type SweepAxis struct {
	Path   string
	Values []string
}

// ParseSweep parses a "path=v1,v2,v3" CLI argument.
func ParseSweep(arg string) (SweepAxis, error) {
	eq := strings.IndexByte(arg, '=')
	if eq <= 0 {
		return SweepAxis{}, fmt.Errorf("scenario: sweep %q is not path=v1,v2,...", arg)
	}
	ax := SweepAxis{Path: arg[:eq], Values: strings.Split(arg[eq+1:], ",")}
	if len(ax.Values) == 0 || ax.Values[0] == "" {
		return SweepAxis{}, fmt.Errorf("scenario: sweep %q has no values", arg)
	}
	return ax, nil
}

// Expand builds the cross-product of the axes over a base spec,
// returning one spec per grid point plus a label ("alpha=2 load=0.9").
func Expand(base Spec, axes []SweepAxis) (specs []Spec, labels []string, err error) {
	specs, labels = []Spec{base}, []string{base.Name}
	for _, ax := range axes {
		short := ax.Path
		if i := strings.LastIndexByte(short, '.'); i >= 0 {
			short = short[i+1:]
		}
		var nextSpecs []Spec
		var nextLabels []string
		for i, s := range specs {
			for _, val := range ax.Values {
				cp := s
				// Deep-copy the slices and pointer blocks reflection will
				// write through.
				cp.Workloads = append([]Workload(nil), s.Workloads...)
				cp.Metrics = append([]string(nil), s.Metrics...)
				cp.Faults = s.Faults.clone()
				if err := SetField(&cp, ax.Path, val); err != nil {
					return nil, nil, err
				}
				label := fmt.Sprintf("%s=%s", short, val)
				if len(axes) > 1 || len(specs) > 1 {
					if labels[i] != base.Name {
						label = labels[i] + " " + label
					}
				}
				nextSpecs = append(nextSpecs, cp)
				nextLabels = append(nextLabels, label)
			}
		}
		specs, labels = nextSpecs, nextLabels
	}
	return specs, labels, nil
}

// RunSweep executes the grid concurrently (experiments.RunGrid honors
// the -j worker cap with deterministic, input-ordered results) and
// returns the summary table: one row per point.
func RunSweep(base Spec, axes []SweepAxis) (*experiments.Table, error) {
	return RunSweepWithProgress(base, axes, nil, nil)
}

// RunSweepWithProgress is RunSweep with a cooperative cancel check and
// a per-point progress hook. canceled is threaded into every grid
// point's engine loop (see RunWithProgress): once it reports true,
// in-flight points bail at their next chunk and the whole sweep returns
// ErrCanceled; a nil canceled never cancels. pointDone is invoked once
// after each grid point's simulation completes. Points run concurrently under experiments.RunGrid, so
// pointDone is called from worker goroutines and must be safe for
// concurrent use (the service layer counts atomically; the fraction is
// calls-so-far over the grid size the caller already knows). A nil
// pointDone is ignored.
func RunSweepWithProgress(base Spec, axes []SweepAxis, canceled func() bool, pointDone func()) (*experiments.Table, error) {
	// The base spec is expanded as-is: defaults are derived inside Run
	// per grid point, so a sweep over (say) topology.hosts recomputes the
	// dependent defaults (incast fanout, ECN threshold) for every point
	// instead of freezing them at the base topology's values.
	specs, labels, err := Expand(base, axes)
	if err != nil {
		return nil, err
	}
	for _, s := range specs {
		if err := s.WithDefaults().Validate(); err != nil {
			return nil, err
		}
	}
	results := experiments.RunGrid(specs, func(s Spec) *Result {
		r, err := RunWithProgress(s, canceled, nil)
		if errors.Is(err, ErrCanceled) {
			return nil // the post-grid check below reports it
		}
		if err != nil {
			panic(err) // validated above; a failure here is a builder bug
		}
		if pointDone != nil {
			pointDone()
		}
		return r
	})
	if canceled != nil && canceled() {
		return nil, ErrCanceled
	}
	return Summarize(base.Name, SweepTitle(base, axes), labels, results, metricsOf(base)), nil
}

// SweepTitle is the summary-table title of a sweep over base: the base
// title annotated with the swept field paths. Exported so a fleet
// router assembling a sweep table from remotely-run grid points renders
// the exact title a single-process RunSweep would.
func SweepTitle(base Spec, axes []SweepAxis) string {
	if len(axes) == 0 {
		return base.Title
	}
	var ps []string
	for _, ax := range axes {
		ps = append(ps, ax.Path)
	}
	return fmt.Sprintf("%s (sweep %s)", base.Title, strings.Join(ps, " × "))
}

// SweepMetrics resolves the metric columns a sweep over base renders —
// the base spec's effective column list, applied to every grid point
// (Summarize uses one column set for the whole table even when a swept
// field would change a point's own default columns).
func SweepMetrics(base Spec) []string { return metricsOf(base) }

// AssembleSweepTable reconstructs the sweep summary table from each
// grid point's individually-computed one-row summary (ResultDoc.Summary
// of the point run). Points must arrive in Expand order. The output is
// byte-identical (once encoded) to the table RunSweep produces in one
// process, because every cell of a summary row depends only on the
// point's own deterministic Result: the assembler just re-labels the
// rows with the grid labels and re-projects the cells onto the base
// spec's column set by column name.
//
// It errors when a point's summary lacks a base column — possible only
// when the base omits explicit metrics AND a swept field changes the
// point's default column set incompatibly (e.g. sweeping a workload
// kind); set Spec.Metrics on the base to sweep such fields across a
// fleet.
func AssembleSweepTable(base Spec, axes []SweepAxis, points []TableDoc) (TableDoc, error) {
	_, labels, err := Expand(base, axes)
	if err != nil {
		return TableDoc{}, err
	}
	if len(points) != len(labels) {
		return TableDoc{}, fmt.Errorf("scenario: sweep over %q has %d grid points, got %d summaries",
			base.Name, len(labels), len(points))
	}
	metrics := metricsOf(base)
	out := TableDoc{
		ID:      base.Name,
		Title:   SweepTitle(base, axes),
		Columns: append([]string{"scenario"}, metrics...),
	}
	for i, p := range points {
		if len(p.Rows) != 1 {
			return TableDoc{}, fmt.Errorf("scenario: grid point %d (%s) summary has %d rows, want 1", i, labels[i], len(p.Rows))
		}
		row := make([]string, 0, 1+len(metrics))
		row = append(row, labels[i])
		for _, m := range metrics {
			j := slices.Index(p.Columns, m)
			if j < 0 || j >= len(p.Rows[0]) {
				return TableDoc{}, fmt.Errorf("scenario: grid point %d (%s) summary lacks column %q (set explicit metrics on the base spec to sweep across a fleet)",
					i, labels[i], m)
			}
			row = append(row, p.Rows[0][j])
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}
