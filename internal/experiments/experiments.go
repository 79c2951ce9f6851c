// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) on the simulated stack. Each experiment returns a
// structured result; Registry names it and says how its rows become a
// table. Absolute numbers differ from the paper's testbed; the shapes —
// who wins, by what factor, where curves saturate — are the reproduction
// target (the shape tests in this package state them).
//
// A row type declares each of its columns once, in a struct tag on the
// field that holds the value:
//
//	Channels int `col:"channels,channels,%8d,axis"`
//
// The tag is key, header, format, role. The key names the -json field and
// the bench.db cell. Header and format place the column in the text table:
// the format is one fmt verb carrying the column's width, optionally
// followed by literal text ("%6.1f%%", "%6dk"); a column without a format
// is left out of the text table and a section whose headers are all empty
// prints no header line. Role "axis" marks a numeric column that
// identifies a sweep cell (client count, crash instant) rather than
// measuring it, "dash" a metric that prints "-" when zero; string columns
// always identify and the remaining numerics are metrics. Text, JSONRows
// and Axes are generated from these tags and nothing else knows a column.
package experiments

import (
	"fmt"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/sim"
)

// Scale selects how long each experiment runs.
type Scale int

// Scales.
const (
	// Quick runs in seconds of wall time; used by tests and `repro -quick`.
	Quick Scale = iota
	// Full runs the paper-sized version.
	Full
)

func (s Scale) dur(quick, full sim.Duration) sim.Duration {
	if s == Quick {
		return quick
	}
	return full
}

func (s Scale) n(quick, full int) int {
	if s == Quick {
		return quick
	}
	return full
}

// Experiment is one registry entry: everything about an experiment that is
// known without running it.
type Experiment struct {
	Name     string
	Title    string // table title; its fmt verbs are filled from Outcome.TitleArgs
	Sections []Section
	Run      func(Scale) Outcome
}

// Section is one run of same-typed rows in an experiment's table.
type Section struct {
	Heading string // line printed above the section; "" for none
	Row     any    // zero row value: its col tags are the section's columns
}

// Outcome is what one run hands the generic renderers.
type Outcome struct {
	TitleArgs []any
	Rows      []any // Rows[i] is the row slice of Sections[i]
	Notes     []string
	// Plot replaces the generated table text. Only Fig 10 and Fig 12 set
	// it: their print is an ASCII queue-depth plot per series, not a grid.
	Plot string
}

// rows is the Outcome of the common case, one section.
func rows(rs any, titleArgs ...any) Outcome {
	return Outcome{Rows: []any{rs}, TitleArgs: titleArgs}
}

// of declares the common case, one unheaded section of row's type.
func of(row any) []Section { return []Section{{Row: row}} }

// cellTexter is implemented by the few row types that print one cell as
// something other than its value (crashmc's capped flag as "yes(+N)", a
// crash sweep's violation count as a verdict): the column's key and the
// text to print there.
type cellTexter interface {
	cellText() (key, text string)
}

// column is one parsed col tag.
type column struct {
	key, header, format, role string
	field                     int
}

func columnsOf(row any) []column {
	t := reflect.TypeOf(row)
	var cols []column
	for i := 0; i < t.NumField(); i++ {
		tag, ok := t.Field(i).Tag.Lookup("col")
		if !ok {
			continue
		}
		p := append(strings.Split(tag, ","), "", "", "")
		cols = append(cols, column{key: p[0], header: p[1], format: p[2], role: p[3], field: i})
	}
	return cols
}

// value is the cell as -json records it: the field, or its String() for
// enum-like fields (workload.Policy, sqlmini.JournalMode).
func (c column) value(row reflect.Value) any {
	v := row.Field(c.field).Interface()
	if s, ok := v.(fmt.Stringer); ok {
		return s.String()
	}
	return v
}

var verbRE = regexp.MustCompile(`^%(-?)(\d*)(?:\.\d+)?[a-z](.*)$`)

// pad fits s into the column: width and alignment are read off the format
// verb, plus the literal text after it.
func (c column) pad(s string) string {
	m := verbRE.FindStringSubmatch(c.format)
	w, _ := strconv.Atoi(m[2])
	w += utf8.RuneCountInString(strings.ReplaceAll(m[3], "%%", "%"))
	if m[1] == "-" {
		w = -w
	}
	return fmt.Sprintf("%*s", w, s)
}

// text is the cell as the table prints it.
func (c column) text(row reflect.Value) string {
	v := c.value(row)
	if t, ok := row.Interface().(cellTexter); ok {
		if key, s := t.cellText(); key == c.key {
			v = s
		}
	}
	if c.role == "dash" && reflect.ValueOf(v).IsZero() {
		return c.pad("-")
	}
	return fmt.Sprintf(c.format, v)
}

// Text renders the outcome as the experiment's text table.
func (e Experiment) Text(o Outcome) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", fmt.Sprintf(e.Title, o.TitleArgs...))
	if o.Plot != "" {
		return b.String() + o.Plot
	}
	for i, sec := range e.Sections {
		if sec.Heading != "" {
			b.WriteString(sec.Heading + "\n")
		}
		var cols []column
		headed := false
		for _, c := range columnsOf(sec.Row) {
			if c.format != "" {
				cols = append(cols, c)
				headed = headed || c.header != ""
			}
		}
		line := make([]string, len(cols))
		if headed {
			for j, c := range cols {
				line[j] = c.pad(c.header)
			}
			b.WriteString(strings.Join(line, " ") + "\n")
		}
		rs := reflect.ValueOf(o.Rows[i])
		for r := 0; r < rs.Len(); r++ {
			for j, c := range cols {
				line[j] = c.text(rs.Index(r))
			}
			b.WriteString(strings.Join(line, " ") + "\n")
		}
	}
	for _, n := range o.Notes {
		b.WriteString("note: " + n + "\n")
	}
	return b.String()
}

// JSONRows renders the outcome as -json rows: one object per row, every
// declared column under its key.
func (e Experiment) JSONRows(o Outcome) []map[string]any {
	var out []map[string]any
	for i, sec := range e.Sections {
		cols := columnsOf(sec.Row)
		rs := reflect.ValueOf(o.Rows[i])
		for r := 0; r < rs.Len(); r++ {
			m := make(map[string]any, len(cols))
			for _, c := range cols {
				m[c.key] = c.value(rs.Index(r))
			}
			out = append(out, m)
		}
	}
	return out
}

// Axes returns the keys of every column declared a sweep axis. Recorded
// run files carry no schema, so `repro record` names bench.db cells by
// key alone; the schema test keeps a key's role the same in every row type.
func Axes() map[string]bool {
	axes := make(map[string]bool)
	for _, e := range Registry {
		for _, sec := range e.Sections {
			for _, c := range columnsOf(sec.Row) {
				if c.role == "axis" {
					axes[c.key] = true
				}
			}
		}
	}
	return axes
}
