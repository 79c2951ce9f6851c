package experiments

import (
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestSchema checks the column declarations every generated view relies
// on, without running an experiment.
func TestSchema(t *testing.T) {
	names := map[string]bool{}
	roleOf := map[string]string{} // key -> "axis" or "metric", over every numeric column
	for _, e := range Registry {
		if names[e.Name] || e.Name == "all" {
			t.Errorf("%s: name registered twice or reserved", e.Name)
		}
		names[e.Name] = true
		if e.Title == "" || len(e.Sections) == 0 || e.Run == nil {
			t.Errorf("%s: incomplete registry entry", e.Name)
		}
		for _, sec := range e.Sections {
			typ := reflect.TypeOf(sec.Row)
			keys := map[string]bool{}
			for _, c := range columnsOf(sec.Row) {
				where := e.Name + ": " + typ.Name() + "." + typ.Field(c.field).Name
				if c.key == "" || keys[c.key] {
					t.Errorf("%s: key %q empty or declared twice in the row", where, c.key)
				}
				keys[c.key] = true
				if c.format != "" && !verbRE.MatchString(c.format) {
					t.Errorf("%s: format %q is not one verb plus literal text", where, c.format)
				}
				if c.format == "" && c.header != "" {
					t.Errorf("%s: header %q on a column the table does not print", where, c.header)
				}
				numeric := false
				switch typ.Field(c.field).Type.Kind() {
				case reflect.Int, reflect.Int64, reflect.Float64:
					_, stringer := typ.Field(c.field).Type.MethodByName("String")
					numeric = !stringer
				case reflect.String, reflect.Bool:
				default:
					t.Errorf("%s: unsupported column type %s", where, typ.Field(c.field).Type)
				}
				role := "metric"
				switch c.role {
				case "axis":
					role = "axis"
				case "", "dash":
				default:
					t.Errorf("%s: unknown role %q", where, c.role)
				}
				if !numeric {
					if c.role != "" {
						t.Errorf("%s: role %q on a non-numeric column", where, c.role)
					}
					continue
				}
				// bench.db cells are named from recorded files by key alone.
				if prev, ok := roleOf[c.key]; ok && prev != role {
					t.Errorf("%s: %q is an axis in one row type and a metric in another", where, c.key)
				}
				roleOf[c.key] = role
			}
		}
	}
	// The axis set `repro record` had hard-coded before the columns declared
	// it; changing it renames cells of every run already in a bench.db.
	want := []string{"channels", "clients", "crash_at_us", "hw_queues", "offered_kops",
		"replicas", "shards", "streams", "threads"}
	var got []string
	for k := range Axes() {
		got = append(got, k)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("axes = %v, want %v", got, want)
	}
}

// TestRenderGenerated drives the three generated views on hand-made rows:
// hidden columns, the dash role, a cellTexter, a headless section, notes.
func TestRenderGenerated(t *testing.T) {
	mq, _ := Lookup("mq")
	o := Outcome{Rows: []any{
		[]MQScalingRow{{Streams: 2, Config: "single-queue", IOPS: 1000, EpochsClosed: 7},
			{Streams: 2, HWQueues: 2, Config: "blkmq", IOPS: 2500, EpochsClosed: 9, Speedup: 2.5}},
		[]MQFSRow{{Config: "EXT4-MQ", OpsPerS: 1234}},
	}}
	wantText := "== MQ: per-stream epochs vs global order (NVMe-SSD, barrier every 8 writes) ==\n" +
		" streams hw-queues layer                IOPS   epochs  speedup\n" +
		"       2         0 single-queue         1000        7        -\n" +
		"       2         2 blkmq                2500        9    2.50x\n" +
		"-- foreground fdatasync under background writeback --\n" +
		"EXT4-MQ              1234 syncs/s\n"
	if got := mq.Text(o); got != wantText {
		t.Errorf("mq text:\n%s\nwant:\n%s", got, wantText)
	}
	js := mq.JSONRows(o)
	if len(js) != 3 || js[0]["speedup"] != 0.0 || js[1]["epochs_closed"] != int64(9) ||
		js[2]["fg_fdatasync_per_s"] != 1234.0 || len(js[2]) != 2 {
		t.Errorf("mq rows = %v", js)
	}

	mc, _ := Lookup("crash")
	text := mc.Text(Outcome{
		Rows:  []any{[]CrashMCRow{{Workload: "kv", Config: "EXT4-DR", CrashAtUs: 1200, Capped: true, Sampled: 128}}},
		Notes: []string{"capped"},
	})
	if !strings.Contains(text, "  yes(+128) ") || !strings.HasSuffix(text, "note: capped\n") {
		t.Errorf("crash text:\n%s", text)
	}
	if row := mc.JSONRows(Outcome{Rows: []any{[]CrashMCRow{{Capped: true, Sampled: 128}}}})[0]; row["capped"] != true || row["sampled"] != 128 {
		t.Errorf("crash row = %v", row)
	}
}
