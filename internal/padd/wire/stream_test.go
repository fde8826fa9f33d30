package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"
)

// streamOf concatenates data-frame envelopes for the given wire frames,
// numbering them seq 1..n.
func streamOf(frames ...[]byte) []byte {
	var buf []byte
	for i, f := range frames {
		buf = AppendStream(buf, uint64(i+1), f)
	}
	return buf
}

func TestStreamRoundTrip(t *testing.T) {
	f1 := validFrame()
	var e Encoder
	if err := e.AppendFlat("other-9", 1, 3, []float64{0.9, 0.8, 0.7}); err != nil {
		t.Fatal(err)
	}
	f2 := append([]byte(nil), e.Frame()...)

	sr := NewStreamReader(bytes.NewReader(streamOf(f1, f2)))
	for i, want := range [][]byte{f1, f2} {
		seq, frame, err := sr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if seq != uint64(i+1) {
			t.Errorf("frame %d: seq %d, want %d", i, seq, i+1)
		}
		if !bytes.Equal(frame, want) {
			t.Errorf("frame %d: payload differs", i)
		}
		// The embedded frame must decode as a normal wire frame.
		var d Decoder
		if err := d.Reset(frame); err != nil {
			t.Errorf("frame %d: embedded decode: %v", i, err)
		}
	}
	if _, _, err := sr.Next(); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}
}

// TestStreamCleanVsMidFrameEOF pins the reconnect semantics: a
// connection dropped between frames is a clean io.EOF, one dropped
// inside a frame is ErrMalformed (the unacked frame is simply lost).
func TestStreamCleanVsMidFrameEOF(t *testing.T) {
	stream := streamOf(validFrame())
	for cut := 1; cut < len(stream); cut++ {
		sr := NewStreamReader(bytes.NewReader(stream[:cut]))
		_, _, err := sr.Next()
		if !errors.Is(err, ErrMalformed) {
			t.Fatalf("cut at %d: %v, want ErrMalformed", cut, err)
		}
	}
	sr := NewStreamReader(bytes.NewReader(stream))
	if _, _, err := sr.Next(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sr.Next(); err != io.EOF {
		t.Fatalf("clean boundary: %v, want io.EOF", err)
	}
}

func TestStreamRejects(t *testing.T) {
	good := streamOf(validFrame())
	cases := map[string]func(b []byte) []byte{
		"bad magic":   func(b []byte) []byte { b[0] = 'X'; return b },
		"bad version": func(b []byte) []byte { b[2] = 7; return b },
		"bad type":    func(b []byte) []byte { b[3] = 9; return b },
		"undersized length": func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:8], StreamHeaderSize)
			return b
		},
		"oversized length": func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:8], StreamHeaderSize+MaxFrameLen+1)
			return b
		},
		"length/frame disagreement": func(b []byte) []byte {
			// Envelope claims one byte more than the embedded frame; the
			// reader consumes it, and the embedded decode must fail.
			binary.LittleEndian.PutUint32(b[4:8], uint32(len(b)+1))
			return append(b, 0)
		},
	}
	for name, mut := range cases {
		b := mut(append([]byte(nil), good...))
		sr := NewStreamReader(bytes.NewReader(b))
		_, frame, err := sr.Next()
		if err == nil {
			var d Decoder
			err = d.Reset(frame)
		}
		if !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: %v, want ErrMalformed", name, err)
		}
	}
}

func TestAckRoundTrip(t *testing.T) {
	in := Ack{
		Seq:     0xdeadbeefcafe,
		Status:  AckPartial,
		Records: 61,
		Samples: 976,
		Rejects: []AckReject{
			{Reason: RejectQueueFull, ID: []byte("fleet-00042")},
			{Reason: RejectUnknownSession, ID: []byte("ghost")},
			{Reason: RejectShape, ID: []byte("s")},
		},
	}
	buf := AppendAck(nil, &in)
	var out Ack
	if err := DecodeAck(buf, &out); err != nil {
		t.Fatal(err)
	}
	if out.Seq != in.Seq || out.Status != in.Status || out.Records != in.Records || out.Samples != in.Samples {
		t.Errorf("header round trip: %+v != %+v", out, in)
	}
	if len(out.Rejects) != len(in.Rejects) {
		t.Fatalf("%d rejects, want %d", len(out.Rejects), len(in.Rejects))
	}
	for i := range in.Rejects {
		if out.Rejects[i].Reason != in.Rejects[i].Reason || !bytes.Equal(out.Rejects[i].ID, in.Rejects[i].ID) {
			t.Errorf("reject %d: %v != %v", i, out.Rejects[i], in.Rejects[i])
		}
	}

	// A clean ack is exactly the header.
	ok := Ack{Seq: 1, Status: AckOK, Records: 64, Samples: 1024}
	if n := len(AppendAck(nil, &ok)); n != AckHeaderSize {
		t.Errorf("clean ack is %d bytes, want %d", n, AckHeaderSize)
	}
}

func TestAckReaderSequence(t *testing.T) {
	var buf []byte
	buf = AppendAck(buf, &Ack{Seq: 1, Status: AckOK, Records: 2, Samples: 32})
	buf = AppendAck(buf, &Ack{Seq: 2, Status: AckBackpressure,
		Rejects: []AckReject{{Reason: RejectQueueFull, ID: []byte("a")}}})
	buf = AppendAck(buf, &Ack{Seq: 3, Status: AckOK})

	ar := NewAckReader(bytes.NewReader(buf))
	var a Ack
	for want := uint64(1); want <= 3; want++ {
		if err := ar.Next(&a); err != nil {
			t.Fatalf("ack %d: %v", want, err)
		}
		if a.Seq != want {
			t.Errorf("seq %d, want %d", a.Seq, want)
		}
	}
	if err := ar.Next(&a); err != io.EOF {
		t.Fatalf("end of acks: %v, want io.EOF", err)
	}
}

func TestAckRejects(t *testing.T) {
	good := AppendAck(nil, &Ack{Seq: 9, Status: AckPartial, Records: 1, Samples: 4,
		Rejects: []AckReject{{Reason: RejectStopping, ID: []byte("drain-1")}}})
	cases := map[string]func(b []byte) []byte{
		"truncated header": func(b []byte) []byte { return b[:AckHeaderSize-1] },
		"bad magic":        func(b []byte) []byte { b[1] = 'X'; return b },
		"bad version":      func(b []byte) []byte { b[2] = 3; return b },
		"bad status":       func(b []byte) []byte { b[3] = 200; return b },
		"length mismatch": func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:8], uint32(len(b)+4))
			return b
		},
		"oversized reject count": func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[24:28], 1<<30)
			return b
		},
		"zero id length": func(b []byte) []byte { b[AckHeaderSize+1] = 0; return b },
		"truncated id": func(b []byte) []byte {
			b[AckHeaderSize+1] = MaxIDLen
			return b
		},
		"trailing garbage": func(b []byte) []byte {
			b = append(b, 0xff)
			binary.LittleEndian.PutUint32(b[4:8], uint32(len(b)))
			return b
		},
	}
	var a Ack
	for name, mut := range cases {
		b := mut(append([]byte(nil), good...))
		if err := DecodeAck(b, &a); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: %v, want ErrMalformed", name, err)
		}
	}
}

// FuzzStreamFrame feeds arbitrary bytes through the full stream read
// path: envelope, embedded frame decode, payload conversion. It must
// never panic, classify every failure as ErrMalformed/ErrNonFinite, and
// frames accepted mid-stream must stay intact when a later frame is
// truncated or corrupted (interleaved-damage property).
func FuzzStreamFrame(f *testing.F) {
	good := streamOf(validFrame())
	f.Add(good)
	f.Add(good[:StreamHeaderSize])     // truncated mid-header payload
	f.Add(good[:len(good)-5])          // truncated mid-frame
	f.Add(streamOf(validFrame(), nil)) // second envelope undersized
	f.Add(append(good, good...))       // two interleaved frames
	long := streamOf(validFrame())
	binary.LittleEndian.PutUint32(long[4:8], StreamHeaderSize+MaxFrameLen+1)
	f.Add(long) // oversized claim

	f.Fuzz(func(t *testing.T, data []byte) {
		sr := NewStreamReader(bytes.NewReader(data))
		var d Decoder
		var rec Record
		var scratch []float64
		lastSeq := uint64(0)
		for {
			seq, frame, err := sr.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				if !errors.Is(err, ErrMalformed) {
					t.Fatalf("Next: unexpected error class %v", err)
				}
				return
			}
			lastSeq = seq
			_ = lastSeq
			if err := d.Reset(frame); err != nil {
				if !errors.Is(err, ErrMalformed) {
					t.Fatalf("embedded Reset: unexpected error class %v", err)
				}
				continue // envelope was fine; the next frame may still parse
			}
			for {
				err := d.Next(&rec)
				if err == io.EOF {
					break
				}
				if err != nil {
					if !errors.Is(err, ErrMalformed) {
						t.Fatalf("embedded Next: unexpected error class %v", err)
					}
					break
				}
				u, err := rec.FloatsInto(scratch)
				scratch = u[:0]
				if err != nil && !errors.Is(err, ErrNonFinite) {
					t.Fatalf("FloatsInto: unexpected error class %v", err)
				}
			}
		}
	})
}

// FuzzAckFrame hammers the ack decoder: never panic, classify every
// failure, and acks that do decode must survive a re-encode round trip
// byte for byte (the encoding is canonical).
func FuzzAckFrame(f *testing.F) {
	f.Add(AppendAck(nil, &Ack{Seq: 1, Status: AckOK, Records: 64, Samples: 1024}))
	f.Add(AppendAck(nil, &Ack{Seq: 2, Status: AckPartial, Records: 1, Samples: 16,
		Rejects: []AckReject{{Reason: RejectQueueFull, ID: []byte("fleet-00001")}}}))
	f.Add(AppendAck(nil, &Ack{Seq: 3, Status: AckMalformed}))
	var two []byte
	two = AppendAck(two, &Ack{Seq: 4, Status: AckOK})
	two = AppendAck(two, &Ack{Seq: 5, Status: AckDraining,
		Rejects: []AckReject{{Reason: RejectStopping, ID: []byte("x")}}})
	f.Add(two)
	short := AppendAck(nil, &Ack{Seq: 6, Status: AckOK})
	f.Add(short[:AckHeaderSize-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		ar := NewAckReader(bytes.NewReader(data))
		var a Ack
		for {
			err := ar.Next(&a)
			if err == io.EOF {
				return
			}
			if err != nil {
				if !errors.Is(err, ErrMalformed) {
					t.Fatalf("Next: unexpected error class %v", err)
				}
				return
			}
			re := AppendAck(nil, &a)
			var b Ack
			if err := DecodeAck(re, &b); err != nil {
				t.Fatalf("re-decode of accepted ack failed: %v", err)
			}
			b.Rejects = append([]AckReject(nil), b.Rejects...)
			a2 := a
			a2.Rejects = append([]AckReject(nil), a.Rejects...)
			if !reflect.DeepEqual(a2, b) {
				t.Fatalf("ack changed across round trip: %+v != %+v", a2, b)
			}
		}
	})
}
