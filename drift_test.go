package dmtcpsim

// The artifact drift gate: every committed BENCH_*.json must equal its
// regeneration at HEAD, table by table and key by key (Title, Columns,
// Rows, Notes, Metrics and critical_path alike).

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestArtifactsMatchRegeneration regenerates each committed artifact
// as `dmtcp-bench -run <ids> -json` does (DefaultOpts), one artifact
// per call with a fresh tracer, encodes it with dmtcp-bench's
// WriteTables, and compares whole tables, then the file's bytes.  A
// table must not depend on what ran before it in the same invocation,
// so restore_lazy regenerated alone must equal its table in
// BENCH_restore.json too.
func TestArtifactsMatchRegeneration(t *testing.T) {
	for _, a := range []struct {
		file string
		ids  []string
		only string // compare just this table of the file
	}{
		{"BENCH_chaos.json", []string{"chaos"}, ""},
		{"BENCH_coordha.json", []string{"coordha"}, ""},
		{"BENCH_failover.json", []string{"failover"}, ""},
		{"BENCH_pipeline.json", []string{"pipeline"}, ""},
		{"BENCH_restore.json", []string{"restore", "restorelazy"}, ""},
		{"BENCH_restore.json", []string{"restorelazy"}, "restore_lazy"},
		{"BENCH_store.json", []string{"store"}, ""},
	} {
		t.Run(a.file+"/"+strings.Join(a.ids, ","), func(t *testing.T) {
			want, err := os.ReadFile(a.file)
			if err != nil {
				t.Fatalf("missing committed artifact %s: %v", a.file, err)
			}
			var got bytes.Buffer
			if err := WriteTables(&got, Regenerate(a.ids, DefaultOpts(), NewTracer(), nil)); err != nil {
				t.Fatal(err)
			}
			committed, fresh := decodeTables(t, a.file, want), decodeTables(t, "regenerated "+a.file, got.Bytes())
			if a.only != "" {
				committed = slices.DeleteFunc(committed, func(tab map[string]any) bool { return tab["ID"] != a.only })
			}
			compareTables(t, a.file, committed, fresh)
			if a.only == "" && !t.Failed() && !bytes.Equal(want, got.Bytes()) {
				t.Errorf("%s: tables are equal but the file is not encoded as dmtcp-bench -json writes it", a.file)
			}
		})
	}
}

func decodeTables(t *testing.T, name string, data []byte) []map[string]any {
	t.Helper()
	var tables []map[string]any
	if err := json.Unmarshal(data, &tables); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return tables
}

// compareTables reports every key of every table that differs between
// the committed artifact and the regenerated tables.
func compareTables(t *testing.T, file string, committed, fresh []map[string]any) {
	t.Helper()
	if len(committed) != len(fresh) {
		t.Fatalf("%s: %d committed tables, %d regenerated", file, len(committed), len(fresh))
	}
	for i, c := range committed {
		var keys []string
		for k := range c {
			keys = append(keys, k)
		}
		for k := range fresh[i] {
			if _, ok := c[k]; !ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			if !reflect.DeepEqual(c[k], fresh[i][k]) {
				t.Errorf("%s: table %v: %s drifted\n  committed:   %.2000s\n  regenerated: %.2000s",
					file, c["ID"], k, jsonText(c[k]), jsonText(fresh[i][k]))
			}
		}
	}
}

func jsonText(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}
