package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadJSONL: ReadJSONL decodes user-supplied event streams (asetsreport
// reads them), so no input may panic it, and every stream it accepts must
// survive a round trip: encoding the decoded events and decoding them again
// gives the same events, and the encoding is a fixed point.
func FuzzReadJSONL(f *testing.F) {
	for _, s := range []string{
		`{"seq":0,"t":0,"kind":"arrival","txn":3,"deadline":12.5,"remaining":2}`,
		"{\"seq\":1,\"t\":1.25,\"kind\":\"mode_switch\",\"txn\":-1,\"wf\":4,\"detail\":\"edf->hdf\"}\n\n" +
			`{"seq":2,"t":3,"kind":"deadline_miss","txn":7,"deadline":2,"tardiness":1e-9}`,
		`{"seq":5,"t":4,"kind":"failover","txn":0,"deadline":30,"detail":"lost"}`,
		`{"t":-0,"kind":"stall","txn":-1,"remaining":3,"detail":"crash@2 \"q\" \\ \u0007 é"}`,
		`{"kind":"alert_fire","txn":-1,"wf":-3,"deadline":2.5,"detail":"heavy/miss"}`,
		`{"kind":"nope","txn":1}`,
		`{"kind":"arrival","txn":1e3}`,
		`not json`,
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		evs, err := ReadJSONL(strings.NewReader(in))
		if err != nil {
			return
		}
		enc := encodeJSONL(t, evs)
		again, err := ReadJSONL(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-decoding the encoding of %q: %v\n%s", in, err, enc)
		}
		if len(again) != len(evs) || (len(evs) > 0 && !reflect.DeepEqual(again, evs)) {
			t.Fatalf("round trip of %q changed the events:\n%+v\n%+v", in, evs, again)
		}
		if enc2 := encodeJSONL(t, again); !bytes.Equal(enc2, enc) {
			t.Fatalf("encoding is not a fixed point:\n%s\n%s", enc, enc2)
		}
	})
}

// encodeJSONL renders events one MarshalJSON line each, keeping their Seq.
func encodeJSONL(t *testing.T, evs []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, ev := range evs {
		b, err := ev.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}
