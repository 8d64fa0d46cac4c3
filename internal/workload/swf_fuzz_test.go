package workload

import (
	"bytes"
	"strconv"
	"testing"
)

// FuzzSWFDecoder feeds arbitrary bytes to the SWF decoder, with a
// processors-to-nodes conversion of 0–65535 cores per node. It must never
// panic, every job it yields must pass Job.Validate, and the
// allocation-free integer parser must agree with strconv.ParseInt on
// every whitespace-separated field. The committed corpus holds
// overflowing counts, archive sentinels (-1), CRLF line ends, short
// lines and records out of submit order.
func FuzzSWFDecoder(f *testing.F) {
	f.Add([]byte("1 0 -1 100 70 -1 -1 70 200 32768 1 7 0 -1 -1 -1 -1 -1\n"), uint16(32))
	f.Add([]byte("1 0 -1 100 9223372036854775807 -1 -1 -1 200 -1 1 7 0 -1 -1 -1 -1 -1\n"), uint16(2))
	f.Fuzz(func(t *testing.T, data []byte, nodeCores uint16) {
		d := NewSWFDecoder(bytes.NewReader(data), SWFReadOptions{NodeCores: int(nodeCores), DefaultMemPerNode: 1024})
		for {
			j, ok := d.Next()
			if !ok {
				break
			}
			if err := j.Validate(); err != nil {
				t.Fatalf("decoder yielded an invalid job: %v", err)
			}
		}
		for _, field := range bytes.FieldsFunc(data, func(r rune) bool { return r < 0x80 && isSWFSpace(byte(r)) || r == '\n' }) {
			got, err := parseInt64(field)
			want, werr := strconv.ParseInt(string(field), 10, 64)
			if (err == nil) != (werr == nil) || err == nil && got != want {
				t.Fatalf("parseInt64(%q) = %d, %v; strconv.ParseInt = %d, %v", field, got, err, want, werr)
			}
		}
	})
}
