package main

import (
	"encoding/json"
	"os"
	"time"
)

// jsonReport is the -json output: one entry per experiment with its
// machine-readable rows (experiments.Experiment.JSONRows generates them
// from the column declarations), plus enough run metadata to compare
// trajectory files across machines and PRs.
type jsonReport struct {
	GeneratedAt string           `json:"generated_at"`
	Commit      string           `json:"commit,omitempty"`
	GoVersion   string           `json:"go_version,omitempty"`
	Host        string           `json:"host,omitempty"`
	Scale       string           `json:"scale"`
	Parallel    bool             `json:"parallel"`
	GoMaxProcs  int              `json:"gomaxprocs"`
	WallSeconds float64          `json:"wall_seconds"`
	Experiments []jsonExperiment `json:"experiments"`
}

type jsonExperiment struct {
	Name        string           `json:"name"`
	WallSeconds float64          `json:"wall_seconds"`
	Rows        []map[string]any `json:"rows,omitempty"`
}

func writeJSON(path string, r jsonReport) error {
	r.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
