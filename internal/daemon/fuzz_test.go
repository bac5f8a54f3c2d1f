package daemon

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"mobilegossip/client"
	"mobilegossip/internal/wire"
)

// The daemon's wire-decoding surfaces — the session-create, run and rebind
// JSON bodies and the events and resume endpoints' query strings — parse
// attacker-controlled
// bytes before any validation by the simulator. The invariant under fuzz
// is the usual one for this module's decoders (FuzzResume, FuzzReaderRaw):
// reject or normalize, never panic. Deliberately NOT under fuzz:
// mobilegossip.New on the decoded config — a fuzzer that discovers
// n=1e9 would be "finding" an allocation, not a bug; Config validation
// has its own tests.

func FuzzCreateRequest(f *testing.F) {
	f.Add([]byte(`{"algorithm":"sharedbit","n":64,"k":8,"seed":1,"topology":{"kind":"regular","degree":4}}`))
	f.Add([]byte(`{"algorithm":"crowdedbin","n":256,"k":32,"topology":{"kind":"gnp","p":0.1},"crowdedbin_beta":3}`))
	f.Add([]byte(`{"algorithm":"simsharedbit","n":64,"k":4,"tau":1,"topology":{"kind":"waypoint","speed":0.02,"adversary":"cutrich","adv_budget":100}}`))
	f.Add([]byte(`{"algorithm":"sharedbit","n":128,"k":128,"epsilon":0.75,"topology":{"kind":"doublestar"},"record_events":true}`))
	f.Add([]byte(`{"algorithm":"","topology":{"kind":""}}`))
	f.Add([]byte(`{"algorithm":"sharedbit","unknown_field":1}`))
	f.Add([]byte(`{}trailing`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Add([]byte(`{"algorithm":"sharedbit","n":64,"k":8,"topology":{"kind":"regular"},"concurrent":true}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeCreateRequest(body)
		if err != nil {
			return
		}
		// A decoded request must either resolve to a Config or produce an
		// enum-name error; both without panicking.
		cfg, err := wire.ConfigFromWire(req)
		if err != nil {
			return
		}
		// Resolvable requests survive the codec round trip: raising the
		// Config back to the wire and lowering it again is the identity.
		back, err := wire.ConfigFromWire(wire.ConfigToWire(cfg, req.RecordEvents))
		if err != nil || !reflect.DeepEqual(back, cfg) {
			t.Fatalf("codec round trip changed %+v into %+v (%v)", cfg, back, err)
		}
	})
}

func FuzzRunRequest(f *testing.F) {
	f.Add([]byte(`{"rounds":10}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	f.Add([]byte(" \n"))
	f.Add([]byte(`{"rounds":-1}`))
	f.Add([]byte(`{"rounds":1} {"rounds":2}`))
	f.Add([]byte(`{"rounds":1}}`))
	f.Add([]byte(`{"round":1}`))
	f.Add([]byte(`{"rounds":1e3}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeRunRequest(body)
		if err != nil {
			return
		}
		// An accepted body is one JSON value or nothing, and it means what
		// the client's encoding of the decoded request means.
		if trimmed := bytes.TrimSpace(body); len(trimmed) > 0 && !json.Valid(trimmed) {
			t.Fatalf("accepted %q, which is not one JSON value", body)
		}
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if back, err := decodeRunRequest(enc); err != nil || back != req {
			t.Fatalf("body %q decoded to %+v, but its encoding %s decodes to %+v (%v)", body, req, enc, back, err)
		}
	})
}

func FuzzRebindRequest(f *testing.F) {
	f.Add([]byte(`{"topology":{"kind":"regular","degree":4},"tau":2}`))
	f.Add([]byte(`{"topology":{"kind":"waypoint","speed":0.01,"adversary":"bipartition","adv_budget":10000},"tau":1}`))
	f.Add([]byte(`{"topology":{"kind":"ring"}}`))
	f.Add([]byte(`{"topology":{"kind":"nope"}}`))
	f.Add([]byte(`{"topology":{"kind":"regular"}}{}`))
	f.Add([]byte(`{"topology":{"kind":"regular","relabel":"bfs"}}`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeRebindRequest(body)
		if err != nil {
			return
		}
		if !json.Valid(bytes.TrimSpace(body)) {
			t.Fatalf("accepted %q, which is not one JSON value", body)
		}
		// A resolvable topology survives the codec round trip, as a
		// create request's does.
		topo, err := wire.TopologyFromWire(req.Topology)
		if err != nil {
			return
		}
		back, err := wire.TopologyFromWire(wire.TopologyToWire(topo))
		if err != nil || !reflect.DeepEqual(back, topo) {
			t.Fatalf("codec round trip changed %+v into %+v (%v)", topo, back, err)
		}
	})
}

func FuzzEventsQuery(f *testing.F) {
	f.Add("filter=round_completed")
	f.Add("filter=round_completed,session_end&minround=2&maxround=40")
	f.Add("follow=1")
	f.Add("follow=true&filter=churn_applied")
	f.Add("minround=0&maxround=0")
	f.Add("filter=")
	f.Add("filter=nope")
	f.Add("minround=-3")
	f.Add("minround=99&maxround=1")
	f.Add("fitler=round_completed")
	f.Add("%zz&&&=&follow")
	f.Fuzz(func(t *testing.T, rawQuery string) {
		filter, follow, err := parseEventsQuery(rawQuery)
		if err != nil {
			return
		}
		// Accepted queries yield an internally consistent filter...
		if filter.MinRound < 0 || filter.MaxRound < 0 {
			t.Fatalf("negative round bound accepted: %+v (query %q)", filter, rawQuery)
		}
		if filter.MinRound > 0 && filter.MaxRound > 0 && filter.MinRound > filter.MaxRound {
			t.Fatalf("inverted round window accepted: %+v (query %q)", filter, rawQuery)
		}
		// ...whose accepted type names reproduce through the client-side
		// query builder and parse identically (the two ends of the wire
		// agree on the dialect).
		names := make([]string, 0, len(filter.Types))
		for _, typ := range filter.Types {
			names = append(names, typ.String())
		}
		opts := client.EventOptions{Types: names, MinRound: filter.MinRound, MaxRound: filter.MaxRound, Follow: follow}
		q := opts.Query()
		if q != "" {
			q = q[1:] // strip "?"
		}
		filter2, follow2, err := parseEventsQuery(q)
		if err != nil {
			t.Fatalf("round-tripped query %q rejected: %v", q, err)
		}
		if follow2 != follow || filter2.MinRound != filter.MinRound || filter2.MaxRound != filter.MaxRound ||
			len(filter2.Types) != len(filter.Types) {
			t.Fatalf("round trip changed the filter: %+v/%v -> %+v/%v (query %q -> %q)",
				filter, follow, filter2, follow2, rawQuery, q)
		}
	})
}

func FuzzResumeQuery(f *testing.F) {
	f.Add("record_events=1")
	f.Add("record_events=true")
	f.Add("record_events=0&record_events=1")
	f.Add("record_events=")
	f.Add("recordevents=1")
	f.Add("record_events=yes")
	f.Add("record_events=1&follow=1")
	f.Add("%zz&&&=&record_events")
	f.Fuzz(func(t *testing.T, rawQuery string) {
		record, err := parseResumeQuery(rawQuery)
		if err != nil {
			return
		}
		// An accepted query means what the client's spelling of the same
		// value means.
		q := ""
		if record {
			q = "record_events=1"
		}
		if back, err := parseResumeQuery(q); err != nil || back != record {
			t.Fatalf("query %q parsed to %v, but the client's %q parses to %v (%v)", rawQuery, record, q, back, err)
		}
	})
}
