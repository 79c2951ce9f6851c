// Package benchdb is the perf-trajectory database format shared by `repro
// record`/`repro trend` (writer and reader) and `benchdiff -db` (gate).
//
// The database is an append-only JSONL file (bench.db by default): one line
// per recorded run, each run flattened into named cells. A cell is
// `<experiment>/<key=value,...>/<metric>` — e.g.
// `kv/clients=4,config=BFS-DR/ops_per_s` — so the same logical measurement
// keeps the same name across history and the readers can line runs up
// column by column.
package benchdb

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
)

// Run is one recorded line of the database.
type Run struct {
	RecordedAt  string             `json:"recorded_at"`
	Label       string             `json:"label"`
	Source      string             `json:"source"`
	Commit      string             `json:"commit,omitempty"`
	GoVersion   string             `json:"go_version,omitempty"`
	Host        string             `json:"host,omitempty"`
	Scale       string             `json:"scale"`
	Parallel    bool               `json:"parallel"`
	GoMaxProcs  int                `json:"gomaxprocs"`
	WallSeconds float64            `json:"wall_seconds"`
	Cells       map[string]float64 `json:"cells"`
}

// Read loads every run line of the database, oldest first. A missing file
// is an empty history, not an error.
func Read(path string) ([]Run, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	var runs []Run
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r Run
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: bad run line: %v", path, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// Append adds one run line to the database, creating the file if needed.
func Append(path string, r Run) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write(append(line, '\n'))
	return err
}

// CellPattern compiles a cell glob ('*' matches anything, '/' included)
// into an anchored regexp.
func CellPattern(glob string) (*regexp.Regexp, error) {
	return regexp.Compile("^" + strings.ReplaceAll(regexp.QuoteMeta(glob), `\*`, ".*") + "$")
}
