package csrank

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// TestHitJSONRoundTrip and TestStatsJSONRoundTrip pin the public wire
// types: every field must survive Marshal → Unmarshal bit-for-bit.
// These types are csserve's response schema, so a field whose tag
// collides, or that is dropped by an accidental unexported rename,
// breaks deployed clients — reflect.DeepEqual over fully-populated
// values catches both.
func TestHitJSONRoundTrip(t *testing.T) {
	in := Hit{DocID: 12345, Title: "pancreatic neoplasms: a survey", Score: 3.25}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Hit
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %+v -> %s -> %+v", in, data, out)
	}
}

func TestStatsJSONRoundTrip(t *testing.T) {
	in := Stats{
		Plan:             "view",
		UsedView:         true,
		ResultSize:       421,
		ContextSize:      99881,
		Degraded:         true,
		DegradedReason:   "stats budget expired",
		PrunedDocs:       1 << 40, // int64 fields must not truncate
		PrunedContainers: 77,
		ShardErrors: []ShardError{
			{Shard: 2, Kind: "timeout", Err: "slice 2: core: slice timed out after 50ms"},
			{Shard: 3, Kind: "breaker-open", Err: "circuit breaker open: shard is shedding"},
		},
		ResultCacheHit:     true,
		SingleFlightShared: true,
		Elapsed:            1500 * time.Microsecond,
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Stats
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip: %+v -> %s -> %+v", in, data, out)
	}

	// Every exported field must map to a distinct JSON key — a copied
	// tag would make two fields fight over one key and silently drop
	// data on the wire.
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	rt := reflect.TypeOf(in)
	if len(m) != rt.NumField() {
		t.Fatalf("%d JSON keys for %d fields: %s", len(m), rt.NumField(), data)
	}
}
