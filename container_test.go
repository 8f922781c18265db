package rqm_test

import (
	"encoding/binary"
	"errors"
	"testing"

	"rqm"
	"rqm/internal/codec"
	"rqm/internal/compressor"
	"rqm/internal/transform"
)

// routingField builds the shared input for container-routing tests.
func routingField(t testing.TB) *rqm.Field {
	t.Helper()
	f, err := rqm.GenerateField("cesm/TS", 42, rqm.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestDecompressRoutesAllContainerFormats is the dispatch table of the
// unified container surface: rqm.Decompress must reconstruct envelope
// containers from every built-in codec with no codec hint from the caller,
// and must refuse a bare native payload (pre-envelope "RQMC" / "RQZF", which
// nothing writes any more) with the typed ErrBadMagic — the router holds no
// second copy of the native header grammars.
func TestDecompressRoutesAllContainerFormats(t *testing.T) {
	f := routingField(t)
	lo, hi := f.ValueRange()
	eb := 1e-3 * (hi - lo)

	cases := []struct {
		name      string
		make      func(t *testing.T) []byte
		wantCodec rqm.CodecID
		bare      bool
	}{
		{
			name: "envelope prediction",
			make: func(t *testing.T) []byte {
				eng, err := rqm.NewEngine(rqm.WithMode(rqm.ABS), rqm.WithErrorBound(eb))
				if err != nil {
					t.Fatal(err)
				}
				res, err := eng.Compress(f)
				if err != nil {
					t.Fatal(err)
				}
				return res.Bytes
			},
			wantCodec: rqm.CodecPrediction,
		},
		{
			name: "envelope transform",
			make: func(t *testing.T) []byte {
				eng, err := rqm.NewEngine(rqm.WithCodecName(rqm.CodecTransformName),
					rqm.WithMode(rqm.ABS), rqm.WithErrorBound(eb))
				if err != nil {
					t.Fatal(err)
				}
				res, err := eng.Compress(f)
				if err != nil {
					t.Fatal(err)
				}
				return res.Bytes
			},
			wantCodec: rqm.CodecTransform,
		},
		{
			name: "legacy RQMC prediction",
			make: func(t *testing.T) []byte {
				res, err := compressor.Compress(f, rqm.CompressOptions{
					Predictor: rqm.Lorenzo, Mode: rqm.ABS, ErrorBound: eb,
				})
				if err != nil {
					t.Fatal(err)
				}
				return res.Bytes
			},
			bare: true,
		},
		{
			// Version 2 of the native header (two entropy bytes after the
			// lossless byte): the retired router misparsed it as "rank 63".
			name: "bare RQMC v2 interleaved",
			make: func(t *testing.T) []byte {
				res, err := compressor.Compress(f, rqm.CompressOptions{
					Predictor: rqm.Lorenzo, Mode: rqm.ABS, ErrorBound: eb,
					Entropy: compressor.EntropyInterleaved,
				})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := compressor.Decompress(res.Bytes); err != nil {
					t.Fatalf("native decoder rejects its own v2 container: %v", err)
				}
				return res.Bytes
			},
			bare: true,
		},
		{
			name: "legacy RQZF transform",
			make: func(t *testing.T) []byte {
				res, err := transform.Compress(f, transform.Options{ErrorBound: eb})
				if err != nil {
					t.Fatal(err)
				}
				return res.Bytes
			},
			bare: true,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			blob := tc.make(t)
			if tc.bare {
				if _, err := rqm.Inspect(blob); !errors.Is(err, rqm.ErrBadMagic) {
					t.Fatalf("Inspect of a bare native payload: %v, want ErrBadMagic", err)
				}
				if _, err := rqm.Decompress(blob); !errors.Is(err, rqm.ErrBadMagic) {
					t.Fatalf("Decompress of a bare native payload: %v, want ErrBadMagic", err)
				}
				return
			}

			info, err := rqm.Inspect(blob)
			if err != nil {
				t.Fatal(err)
			}
			if info.CodecID != tc.wantCodec {
				t.Fatalf("routed to codec %d, want %d", info.CodecID, tc.wantCodec)
			}
			if info.FieldName != f.Name {
				t.Fatalf("field name %q, want %q", info.FieldName, f.Name)
			}

			back, err := rqm.Decompress(blob)
			if err != nil {
				t.Fatal(err)
			}
			if err := rqm.VerifyErrorBound(f, back, rqm.ABS, eb); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDecompressRejectsBadContainers checks that malformed inputs fail with
// the typed container errors, not bare strings.
func TestDecompressRejectsBadContainers(t *testing.T) {
	f := routingField(t)
	eng, err := rqm.NewEngine(rqm.WithMode(rqm.REL), rqm.WithErrorBound(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Compress(f)
	if err != nil {
		t.Fatal(err)
	}
	sealed := res.Bytes

	corrupt := func(mutate func([]byte) []byte) []byte {
		return mutate(append([]byte{}, sealed...))
	}
	// A valid envelope around the first half of a valid native payload: the
	// envelope parses, the codec's own decoder refuses the payload.
	halfPayload := func(id codec.ID, payload []byte) []byte {
		b, err := codec.Seal(id, f, payload[:len(payload)/2])
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	pred, err := compressor.Compress(f, rqm.CompressOptions{Mode: rqm.REL, ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := transform.Compress(f, transform.Options{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		blob    []byte
		wantErr error
	}{
		{"empty", nil, rqm.ErrTruncated},
		{"single byte", []byte{0x45}, rqm.ErrTruncated},
		{"short magic", []byte{0x45, 0x43}, rqm.ErrTruncated},
		{"unknown magic", []byte{0xDE, 0xAD, 0xBE, 0xEF, 0, 0, 0, 0}, rqm.ErrBadMagic},
		{"header cut mid-dims", corrupt(func(b []byte) []byte { return b[:10] }), rqm.ErrTruncated},
		{"payload shorter than declared", corrupt(func(b []byte) []byte { return b[:len(b)-5] }), rqm.ErrTruncated},
		{"future version", corrupt(func(b []byte) []byte { b[4] = 99; return b }), rqm.ErrUnsupportedVersion},
		{"unregistered codec id", corrupt(func(b []byte) []byte { b[5] = 233; return b }), rqm.ErrUnknownCodec},
		{"zero dimension", corrupt(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:], 0)
			return b
		}), rqm.ErrCorrupt},
		{"prediction payload cut in half", halfPayload(codec.IDPrediction, pred.Bytes), rqm.ErrCorrupt},
		{"transform payload cut in half", halfPayload(codec.IDTransform, tr.Bytes), rqm.ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := rqm.Decompress(tc.blob)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("got %v, want %v", err, tc.wantErr)
			}
		})
	}
}
