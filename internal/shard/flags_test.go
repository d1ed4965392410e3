package shard

import (
	"strings"
	"testing"
	"time"
)

// TestCheckServingFlags: fluxd and fluxrouter's embedded shards refuse
// the same serving flag values, each error naming its flag, where the
// options underneath would silently substitute a default or unlimited.
func TestCheckServingFlags(t *testing.T) {
	for _, tc := range []struct {
		name        string
		window      time.Duration
		maxBatch    int
		maxResident int64
		wantErr     string
	}{
		{"ok", 2 * time.Millisecond, 16, 0, ""},
		{"ok limits", maxSaneWindow, maxSaneBatch, 1 << 24, ""},
		{"zero window", 0, 16, 0, "-window"},
		{"negative window", -time.Second, 16, 0, "-window"},
		{"absurd window", maxSaneWindow + 1, 16, 0, "-window"},
		{"zero batch", time.Millisecond, 0, 0, "-max-batch"},
		{"negative batch", time.Millisecond, -3, 0, "-max-batch"},
		{"absurd batch", time.Millisecond, maxSaneBatch + 1, 0, "-max-batch"},
		{"negative resident", time.Millisecond, 16, -1, "-max-resident-buffer"},
	} {
		err := CheckServingFlags(tc.window, tc.maxBatch, tc.maxResident)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.HasPrefix(err.Error(), tc.wantErr+" ") {
			t.Errorf("%s: err = %v, want an error naming %s", tc.name, err, tc.wantErr)
		}
	}
}
