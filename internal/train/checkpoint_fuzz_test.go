package train

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeCheckpoint: a checkpoint is bytes from outside the process — a
// file a resumed job or a restarted server reads back. Whatever they hold,
// DecodeCheckpoint returns an error or a checkpoint, never a panic, and a
// checkpoint it accepts encodes and decodes again.
func FuzzDecodeCheckpoint(f *testing.F) {
	old, err := os.ReadFile(filepath.Join("testdata", "resnet_pre_layerrng.checkpoint"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(old)
	var fresh bytes.Buffer
	if err := saveTestCheckpoint(f).Encode(&fresh); err != nil {
		f.Fatal(err)
	}
	f.Add(fresh.Bytes())
	f.Add(checkpointMagic)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		ck, err := DecodeCheckpoint(bytes.NewReader(b))
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := ck.Encode(&again); err != nil {
			t.Fatalf("an accepted checkpoint does not encode: %v", err)
		}
		if _, err := DecodeCheckpoint(&again); err != nil {
			t.Fatalf("an accepted checkpoint does not decode after re-encoding: %v", err)
		}
	})
}
