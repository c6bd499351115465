package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/sfg"
	"repro/internal/sfg/sfgtest"
)

// envelopeAround wraps an arbitrary payload in a well-formed envelope:
// magic, version, key and CRC all check out, so the payload itself is
// what the receiver has to judge.
func envelopeAround(t testing.TB, key ProfileKey, payload []byte) []byte {
	t.Helper()
	keyJSON, err := json.Marshal(key)
	if err != nil {
		t.Fatal(err)
	}
	return assembleEnvelope(keyJSON, payload, crc32.Checksum(payload, castagnoli))
}

// malformedPayloads are profile payloads a damaged file or a hostile or
// older peer can deliver inside a CRC-valid envelope. The version 1
// histograms made version 1 decoding panic (in AddN and makeslice).
var malformedPayloads = []struct {
	name    string
	payload []byte
}{
	{"v1 histogram value 0", sfgtest.V1Payload(sfgtest.V1Hist{Max: 512, Values: []int32{0}, Counts: []uint64{1}})},
	{"v1 values and counts mismatched", sfgtest.V1Payload(sfgtest.V1Hist{Max: 512, Values: []int32{1, 2}, Counts: []uint64{1}})},
	{"v1 negative max", sfgtest.V1Payload(sfgtest.V1Hist{Max: -4, Values: []int32{1}, Counts: []uint64{1}})},
	{"histogram value 0", sfgtest.Minimal(sfgtest.Hist(512, 1, 0, 1)).Bytes()},
	{"histogram pairs cut short", sfgtest.Minimal(sfgtest.Hist(512, 2, 4, 1)).Bytes()},
	{"histogram max above cap", sfgtest.Minimal(sfgtest.Hist(1<<40, 1, 1, 1)).Bytes()},
	{"not a profile", []byte("not a profile")},
}

// TestMalformedProfilePayloadsRejected sends each malformed payload
// through every layer that parses one: sfg.Load, the envelope decoder,
// and a peer's offer. Each must be an error — a 400 and a counted
// rejection at the offer handler — never a panic or a dropped
// connection.
func TestMalformedProfilePayloadsRejected(t *testing.T) {
	svc, ts := newTestServerOpts(t, Options{Workers: 2, CacheSize: 4, JobTimeout: time.Minute, CacheDir: t.TempDir()})

	valid := envelopeAround(t, clusterTestKey, sfgtest.Minimal(sfgtest.Hist(512, 1, 3, 1)).Bytes())
	if _, _, err := DecodeProfileEnvelope(valid, nil); err != nil {
		t.Fatalf("the well-formed control envelope is refused: %v", err)
	}

	for i, tc := range malformedPayloads {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := sfg.Load(bytes.NewReader(tc.payload)); err == nil {
				t.Fatal("sfg.Load accepted the payload")
			}
			env := envelopeAround(t, clusterTestKey, tc.payload)
			if _, _, err := DecodeProfileEnvelope(env, nil); err == nil {
				t.Fatal("DecodeProfileEnvelope accepted the envelope")
			}
			resp, err := http.Post(ts.URL+"/v1/cluster/offer", "application/octet-stream", bytes.NewReader(env))
			if err != nil {
				t.Fatalf("offer: %v", err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !json.Valid(body) {
				t.Fatalf("offer answered %d %s, want a JSON 400", resp.StatusCode, body)
			}
			if got := svc.clusterServed.offersRejected.Load(); got != uint64(i+1) {
				t.Fatalf("offers_rejected = %d, want %d", got, i+1)
			}
		})
	}
	if _, ok := svc.cache.Peek(clusterTestKey); ok {
		t.Error("a rejected offer reached the cache")
	}
	if _, err := os.Stat(svc.store.Path(clusterTestKey)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a rejected offer reached the store: %v", err)
	}
}

// TestStoreVersion1FileReprofiled: a store file written by a build with
// profile wire version 1 is refused by the version check, quarantined,
// and the daemon re-profiles and overwrites it.
func TestStoreVersion1FileReprofiled(t *testing.T) {
	dir := t.TempDir()
	svc, ts := newTestServerOpts(t, Options{Workers: 2, CacheSize: 2, JobTimeout: time.Minute, CacheDir: dir})
	spec := ProfileSpec{Workload: "vpr", K: 1, N: 20_000}
	key, err := spec.key(svc.opts)
	if err != nil {
		t.Fatal(err)
	}
	old := envelopeAround(t, key, sfgtest.V1Payload(sfgtest.V1Hist{Max: 512, Values: []int32{3}, Counts: []uint64{1}}))
	path := svc.Store().Path(key)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Store().Load(key); !errors.Is(err, ErrCorruptProfile) ||
		!strings.Contains(err.Error(), "unsupported profile version 1") {
		t.Fatalf("version 1 file: %v, want a corrupt-profile error naming the version", err)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, filepath.Base(path))); err != nil {
		t.Fatalf("version 1 file not quarantined: %v", err)
	}

	// The daemon path: plant the old file again and ask for the profile.
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	var prof ProfileResponse
	if code, body := postJSON(t, ts.URL+"/v1/profile", ProfileRequest{ProfileSpec: spec}, &prof); code != http.StatusOK {
		t.Fatalf("profile: %d %s", code, body)
	}
	if prof.Cached || prof.TotalInstructions == 0 {
		t.Errorf("profile response %+v, want a fresh profile", prof)
	}
	if st := svc.Store().Stats(); st.Quarantined != 2 || st.Saves != 1 {
		t.Errorf("store stats %+v, want 2 quarantined and the re-profile saved", st)
	}
	if g, err := svc.Store().Load(key); err != nil || g.TotalInstructions != prof.TotalInstructions {
		t.Errorf("re-profiled file does not load: %v", err)
	}
}

// FuzzLoad feeds arbitrary bytes to sfg.Load and to the envelope
// decoder, both raw and wrapped in a CRC-valid envelope so mutations
// reach the payload parser. Nothing may panic, and a payload that loads
// must re-save to bytes that load to the same bytes again.
func FuzzLoad(f *testing.F) {
	g := testGraph(f)
	var valid bytes.Buffer
	if err := g.Save(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	env, err := EncodeProfileEnvelope(clusterTestKey, g)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(env)
	f.Add(sfgtest.Minimal(sfgtest.Hist(512, 2, 1, 4, 7, 1)).Bytes())
	f.Add(sfgtest.V1Payload(sfgtest.V1Hist{Max: 512, Values: []int32{3}, Counts: []uint64{1}}))
	for _, tc := range malformedPayloads {
		f.Add(tc.payload)
		f.Add(envelopeAround(f, clusterTestKey, tc.payload))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _ = DecodeProfileEnvelope(data, nil)
		_, _, _ = DecodeProfileEnvelope(envelopeAround(t, clusterTestKey, data), &clusterTestKey)
		g, err := sfg.Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		g.Freeze()
		var once, twice bytes.Buffer
		if err := g.Save(&once); err != nil {
			t.Fatalf("save of a loaded graph: %v", err)
		}
		g2, err := sfg.Load(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("a loaded graph re-saves to a payload Load refuses: %v", err)
		}
		if err := g2.Save(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("Save -> Load -> Save is not a fixed point")
		}
	})
}
