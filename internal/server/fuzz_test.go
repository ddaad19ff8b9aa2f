package server_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"sma/internal/server"
)

// FuzzDecodeRequest fuzzes the wire request decoders with every statement
// form the SQL surface accepts plus malformed shells. Properties: the
// decoders never panic, accepted requests satisfy the documented bounds
// and carry only known fields, and a re-encoded accepted request decodes
// back to the same value.
func FuzzDecodeRequest(f *testing.F) {
	for _, seed := range []string{
		// Every statement form, as /query and /exec bodies.
		`{"sql":"select count(*) from W"}`,
		`{"sql":"select K, sum(V) as S, avg(V) as A from W where D <= date '2024-03-01' and not (K = 'B') group by K having S > 3 order by K","dop":4,"timeout_ms":1000,"trace":true}`,
		`{"sql":"select * from W limit 10","deadline_ms":1700000000000}`,
		`{"sql":"select D, K from W where V >= 1.5 or N <> 3","dop":1}`,
		`{"sql":"insert into W values (date '2024-01-01', 'A', 1.5, 3, 'p'), ('2024-01-02', 'B', -2, 4, '')"}`,
		`{"sql":"insert into W (K, D, V, N, PAD) values ('A', '2024-01-01', 0.5, 1, 'x')"}`,
		`{"sql":"update W set V = V + 1.5, K = 'C' where N > 3"}`,
		`{"sql":"delete from W where D >= date '2024-06-01'"}`,
		`{"sql":"delete from W"}`,
		`{"sql":"create table W (D date, K char(1), V float64, N int64, PAD char(500))"}`,
		`{"sql":"define sma s1 select sum(V) from W group by K"}`,
		`{"sql":"define sma dmin select min(D) from W"}`,
		`{"sql":"drop sma s1 on W"}`,
		// Malformed shells and boundary knobs.
		``, `{`, `{}`, `[]`, `null`, `"sql"`,
		`{"sql":""}`,
		`{"sql":"select 1"} {"sql":"trailing"}`,
		`{"sql":"q","dop":-1}`, `{"sql":"q","dop":513}`,
		`{"sql":"q","timeout_ms":-1}`, `{"sql":"q","timeout_ms":99999999999}`,
		`{"sql":"q","deadline_ms":-1}`, `{"sql":"q","idempotency_key":"k"}`,
		"{\"sql\":\" \x00\xff\",\"dop\":0}",
	} {
		f.Add([]byte(seed))
	}
	// Bodies neither decoder accepts: batch_size is not a request field,
	// and strict decoding refuses every unknown field, whatever its value.
	for _, seed := range []string{
		`{"sql":"select 1","bogus":true}`,
		`{"sql":"q","batch_size":16}`, `{"sql":"q","batch_size":0}`,
		`{"sql":"q","batch_size":null}`, `{"sql":"q","batch_size":-9999}`,
		`{"sql":"q","dop":2,"batch_size":2000000000}`,
		`{"sql":"q","BATCH_SIZE":16}`,
		`{"sql":"q","timeout":5}`, `{"sql":"q","statement_deadline":5}`,
	} {
		if _, err := server.DecodeQueryRequest(strings.NewReader(seed)); err == nil {
			f.Fatalf("query decoder accepted %s", seed)
		}
		if _, err := server.DecodeExecRequest(strings.NewReader(seed)); err == nil {
			f.Fatalf("exec decoder accepted %s", seed)
		}
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := server.DecodeQueryRequest(bytes.NewReader(data)); err == nil {
			onlyFields(t, data, "sql", "dop", "timeout_ms", "deadline_ms", "trace")
			if req.SQL == "" || len(req.SQL) > server.MaxSQLBytes {
				t.Fatalf("accepted out-of-bounds sql (len %d)", len(req.SQL))
			}
			if req.DOP < 0 || req.DOP > server.MaxDOP {
				t.Fatalf("accepted out-of-bounds dop %d", req.DOP)
			}
			if req.TimeoutMillis < 0 || req.TimeoutMillis > server.MaxTimeoutMillis {
				t.Fatalf("accepted out-of-bounds timeout_ms %d", req.TimeoutMillis)
			}
			buf, err := json.Marshal(req)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			req2, err := server.DecodeQueryRequest(bytes.NewReader(buf))
			if err != nil {
				t.Fatalf("re-decode of %s: %v", buf, err)
			}
			if !reflect.DeepEqual(req, req2) {
				t.Fatalf("round trip drifted: %+v vs %+v", req, req2)
			}
		}
		if req, err := server.DecodeExecRequest(bytes.NewReader(data)); err == nil {
			onlyFields(t, data, "sql", "timeout_ms", "deadline_ms", "idempotency_key")
			if req.SQL == "" || req.TimeoutMillis < 0 {
				t.Fatalf("accepted invalid exec request %+v", req)
			}
		}
	})
}

// onlyFields fails unless every key of the accepted JSON object data names
// one of fields, matched as encoding/json matches them (case-insensitively).
func onlyFields(t *testing.T, data []byte, fields ...string) {
	t.Helper()
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(data, &obj); err != nil {
		t.Fatalf("accepted body is not a JSON object: %v", err)
	}
	for k := range obj {
		known := false
		for _, f := range fields {
			known = known || strings.EqualFold(k, f)
		}
		if !known {
			t.Fatalf("accepted a body with unknown field %q: %s", k, data)
		}
	}
}
