package pcap

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"testing/quick"

	"packetshader/internal/packet"
	"packetshader/internal/sim"
)

func frame(n int, fill byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = fill
	}
	return b
}

func TestGlobalHeaderGolden(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 65535)
	if err := w.WritePacket(0, frame(60, 0)); err != nil {
		t.Fatal(err)
	}
	hdr := buf.Bytes()[:globalHeaderLen]
	if binary.LittleEndian.Uint32(hdr[0:4]) != MagicNanos {
		t.Errorf("magic = %#x", binary.LittleEndian.Uint32(hdr[0:4]))
	}
	if binary.LittleEndian.Uint16(hdr[4:6]) != 2 || binary.LittleEndian.Uint16(hdr[6:8]) != 4 {
		t.Error("version not 2.4")
	}
	if binary.LittleEndian.Uint32(hdr[16:20]) != 65535 {
		t.Error("snaplen wrong")
	}
	if binary.LittleEndian.Uint32(hdr[20:24]) != LinkTypeEthernet {
		t.Error("link type not Ethernet")
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 0)
	times := []sim.Time{
		0,
		sim.Time(70 * sim.Nanosecond),
		sim.Time(1500 * sim.Millisecond), // > 1 second: sec field used
	}
	for i, at := range times {
		if err := w.WritePacket(at, frame(64+i*10, byte(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("records = %d", len(recs))
	}
	for i, rec := range recs {
		if rec.At != times[i] {
			t.Errorf("record %d at %v, want %v", i, rec.At, times[i])
		}
		if len(rec.Data) != 64+i*10 || rec.OrigLen != len(rec.Data) {
			t.Errorf("record %d len %d/%d", i, len(rec.Data), rec.OrigLen)
		}
		for _, b := range rec.Data {
			if b != byte(i+1) {
				t.Fatalf("record %d payload corrupted", i)
			}
		}
	}
}

func TestSnaplenTruncates(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 96)
	if err := w.WritePacket(0, frame(1514, 0xAB)); err != nil {
		t.Fatal(err)
	}
	r, _ := NewReader(bytes.NewReader(buf.Bytes()))
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Data) != 96 || rec.OrigLen != 1514 {
		t.Errorf("truncation: incl %d orig %d", len(rec.Data), rec.OrigLen)
	}
}

func TestReaderRejectsBadMagic(t *testing.T) {
	junk := make([]byte, globalHeaderLen)
	if _, err := NewReader(bytes.NewReader(junk)); err != ErrBadMagic {
		t.Errorf("err = %v", err)
	}
}

func TestReaderEOFMidRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 0)
	w.WritePacket(0, frame(64, 1))
	// Chop the stream inside the record header.
	trunc := buf.Bytes()[:globalHeaderLen+8]
	r, _ := NewReader(bytes.NewReader(trunc))
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("err = %v, want EOF", err)
	}
}

// TestReaderCapsRecordLength: a header claiming snaplen 0xFFFFFFFF must
// not let a record's incl_len size an allocation past libpcap's
// 262,144-byte maximum; the record is refused before any payload read.
func TestReaderCapsRecordLength(t *testing.T) {
	stream := func(incl uint32, payload int) []byte {
		var hdr [globalHeaderLen + recordHeaderLen]byte
		binary.LittleEndian.PutUint32(hdr[0:4], MagicNanos)
		binary.LittleEndian.PutUint32(hdr[16:20], 0xFFFFFFFF)
		binary.LittleEndian.PutUint32(hdr[20:24], LinkTypeEthernet)
		binary.LittleEndian.PutUint32(hdr[globalHeaderLen+8:], incl)
		binary.LittleEndian.PutUint32(hdr[globalHeaderLen+12:], incl)
		return append(hdr[:], make([]byte, payload)...)
	}
	r, err := NewReader(bytes.NewReader(stream(maxRecordLen+1, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Errorf("incl_len %d: err = %v, want a length error", maxRecordLen+1, err)
	}
	r, err = NewReader(bytes.NewReader(stream(maxRecordLen, maxRecordLen)))
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := r.Next(); err != nil || len(rec.Data) != maxRecordLen {
		t.Errorf("incl_len %d: got %d bytes, err %v; want the full record", maxRecordLen, len(rec.Data), err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(payloads [][]byte, nsOffsets []uint32) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf, 0)
		var want [][]byte
		for i, p := range payloads {
			if len(p) == 0 {
				continue
			}
			var at sim.Time
			if i < len(nsOffsets) {
				at = sim.Time(nsOffsets[i]) * sim.Time(sim.Nanosecond)
			}
			if err := w.WritePacket(at, p); err != nil {
				return false
			}
			want = append(want, p)
		}
		if len(want) == 0 {
			return true
		}
		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return false
		}
		recs, err := r.ReadAll()
		if err != nil || len(recs) != len(want) {
			return false
		}
		for i := range recs {
			if !bytes.Equal(recs[i].Data, want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTapSamplingAndLimit(t *testing.T) {
	var buf bytes.Buffer
	tap := &Tap{W: NewWriter(&buf, 0), SampleEvery: 3, Limit: 2}
	pool := packet.NewBufPool(128)
	for i := 0; i < 12; i++ {
		b := pool.Get(64)
		b.Data[0] = byte(i)
		tap.Observe(b, sim.Time(i)*sim.Time(sim.Microsecond))
		b.Release()
	}
	if tap.Err != nil {
		t.Fatal(tap.Err)
	}
	r, _ := NewReader(bytes.NewReader(buf.Bytes()))
	recs, _ := r.ReadAll()
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2 (every 3rd, limit 2)", len(recs))
	}
	if recs[0].Data[0] != 0 || recs[1].Data[0] != 3 {
		t.Errorf("sampled packets %d,%d want 0,3", recs[0].Data[0], recs[1].Data[0])
	}
}

func TestTapDefaultsSampleEveryOne(t *testing.T) {
	var buf bytes.Buffer
	tap := &Tap{W: NewWriter(&buf, 0)}
	pool := packet.NewBufPool(128)
	for i := 0; i < 5; i++ {
		tap.Observe(pool.Get(64), 0)
	}
	if tap.W.Packets != 5 {
		t.Errorf("packets = %d", tap.W.Packets)
	}
}
