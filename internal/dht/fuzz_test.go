package dht

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"testing"

	"mdrep/internal/obs"
	"mdrep/internal/wire"
)

// frame wraps body in a wire frame with the given declared length,
// which need not match the actual body size.
func frame(declared uint32, body []byte) []byte {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], declared)
	return append(hdr[:], body...)
}

// FuzzWireRequestDecode throws arbitrary bytes at the server-side frame
// decode + dispatch path: whatever arrives, the server must either
// serve the request or return an error — never panic.
func FuzzWireRequestDecode(f *testing.F) {
	valid, _ := encodeFrame(wireRequest{Method: "find_successor", ID: 42})
	f.Add(valid)
	store, _ := encodeFrame(wireRequest{Method: "store", Records: []StoredRecord{{Key: 7}}, Replicate: true})
	f.Add(store)
	f.Add(frame(12, []byte(`{"method":1}`)))       // wrong type
	f.Add(frame(100, []byte(`{"method":"ping"}`))) // truncated body
	f.Add(frame(wire.MaxFrame+1, nil))             // oversize declaration
	f.Add(frame(3, []byte(`{"unterminated`)))      // declared < actual
	f.Add([]byte{0xff})                            // truncated header
	f.Add(frame(2, []byte("{}")))                  // empty object

	f.Fuzz(func(t *testing.T, data []byte) {
		var req wireRequest
		if err := wire.ReadFrame(bytes.NewReader(data), &req); err != nil {
			return // malformed frames must error, and they did
		}
		// Whatever decoded must dispatch without panicking.
		_ = dispatch(nullHandler{}, req, obs.SpanContext{})
	})
}

func encodeFrame(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := wire.WriteFrame(&buf, v)
	return buf.Bytes(), err
}

// TestReadFrameBoundedAllocation pins the anti-over-allocation
// property: a hostile header declaring a MaxFrame body against a
// near-empty stream must not cost a MaxFrame allocation.
func TestReadFrameBoundedAllocation(t *testing.T) {
	hostile := frame(wire.MaxFrame, []byte("tiny"))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const rounds = 16
	for i := 0; i < rounds; i++ {
		var req wireRequest
		err := wire.ReadFrame(bytes.NewReader(hostile), &req)
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
		}
	}
	runtime.ReadMemStats(&after)
	spent := after.TotalAlloc - before.TotalAlloc
	// An eager decoder would allocate rounds × 4MB = 64MB here; the
	// bounded reader stays under one chunk (64KB) per attempt.
	if limit := uint64(rounds * 1 << 20); spent > limit {
		t.Fatalf("decoding %d hostile frames allocated %d bytes, want < %d", rounds, spent, limit)
	}
}
