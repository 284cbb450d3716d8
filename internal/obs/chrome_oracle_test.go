package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// The reference Chrome exporter. Production code no longer runs it; the
// differential and fuzz tests in chrome_test.go compare WriteChrome
// against it byte for byte.

// chromeEvent is one trace_event entry. Field order fixes the JSON
// field order; args maps marshal with sorted keys, so output is
// byte-deterministic.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	ID   int            `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

const chromePID = 1

// writeChromeReference is WriteChrome as it stood through PR 12, moved
// here verbatim: build every event as a struct with a boxed args map and
// hand the lot to encoding/json. It defines the export's bytes; the
// streaming encoder in chrome.go must reproduce them exactly.
func writeChromeReference(r *Recorder, w io.Writer) error {
	spans := r.Spans()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Done != spans[j].Done {
			return spans[i].Done < spans[j].Done
		}
		return spans[i].Action < spans[j].Action
	})
	samples := r.Samples()

	events := make([]chromeEvent, 0, 2*len(spans)+len(samples)+8)

	// Thread-name metadata, sorted by TID for stable output.
	tids := make([]int, 0, 8)
	seen := make(map[int32]bool)
	byAction := make(map[int32]int32, len(spans)) // action -> TID, for flows
	for i := range spans {
		sp := &spans[i]
		byAction[sp.Action] = sp.TID
		if !seen[sp.TID] {
			seen[sp.TID] = true
			tids = append(tids, int(sp.TID))
		}
	}
	sort.Ints(tids)
	for _, tid := range tids {
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", PID: chromePID, TID: tid,
			Args: map[string]any{"name": fmt.Sprintf("replay-T%d", tid)},
		})
	}

	for i := range spans {
		sp := &spans[i]
		if wait := sp.Wait(); wait > 0 {
			events = append(events, chromeEvent{
				Name: r.Str(sp.Call), Cat: "wait", Ph: "X",
				TS: usec(sp.WaitStart), Dur: usec(wait),
				PID: chromePID, TID: int(sp.TID),
				Args: map[string]any{"action": sp.Action, "predelay_us": usec(sp.Predelay)},
			})
		}
		args := map[string]any{"action": sp.Action}
		if sp.ReleaseRes != 0 {
			args["release_res"] = r.Str(sp.ReleaseRes)
		}
		events = append(events, chromeEvent{
			Name: r.Str(sp.Call), Cat: "call", Ph: "X",
			TS: usec(sp.Issue), Dur: usec(sp.InCall()),
			PID: chromePID, TID: int(sp.TID),
			Args: args,
		})
		// Flow from the releasing action's track to this action's issue.
		// Flow ids must be nonzero and unique per arrow; action index + 1
		// is both (each action is released at most once).
		if sp.ReleasedBy >= 0 {
			fromTID, ok := byAction[sp.ReleasedBy]
			if !ok {
				continue // releaser's span fell out of the ring
			}
			events = append(events, chromeEvent{
				Name: "dep", Cat: "dep", Ph: "s",
				TS: usec(sp.ReleasedAt), PID: chromePID, TID: int(fromTID),
				ID: int(sp.Action) + 1,
			})
			events = append(events, chromeEvent{
				Name: "dep", Cat: "dep", Ph: "f", BP: "e",
				TS: usec(sp.Issue), PID: chromePID, TID: int(sp.TID),
				ID: int(sp.Action) + 1,
			})
		}
	}

	for _, s := range samples {
		events = append(events, chromeEvent{
			Name: s.Kind.String(), Ph: "C",
			TS: usec(s.At), PID: chromePID, TID: 0,
			Args: map[string]any{"value": s.Value},
		})
	}

	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(&doc)
}
