package snapshot

import (
	"bytes"
	"testing"
)

// buildPaged writes a three-section paged file with one lazy section.
func buildPaged(t *testing.T, pageSize int) []byte {
	t.Helper()
	var buf bytes.Buffer
	pw, err := NewPagedWriter(&buf, KindIndex, 4, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := pw.Begin("payload", SectionLazyVerify); err != nil {
		t.Fatal(err)
	}
	pw.Write(bytes.Repeat([]byte{0xAB, 1, 2, 3}, 100))
	if err := pw.Begin("dir", 0); err != nil {
		t.Fatal(err)
	}
	pw.Write([]byte("directory-bytes"))
	if err := pw.Begin("toc", 0); err != nil {
		t.Fatal(err)
	}
	pw.Write([]byte("toc-bytes"))
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestPagedRoundTrip(t *testing.T) {
	for _, pageSize := range []int{64, 512, DefaultPageSize} {
		data := buildPaged(t, pageSize)
		pf, err := OpenPaged(data)
		if err != nil {
			t.Fatalf("pageSize %d: %v", pageSize, err)
		}
		if pf.Header().Kind != KindIndex || pf.Header().PayloadVersion != 4 {
			t.Fatalf("pageSize %d: header %+v", pageSize, pf.Header())
		}
		if pf.pageSize != pageSize {
			t.Fatalf("pageSize %d: got %d", pageSize, pf.pageSize)
		}
		pay, ok := pf.Section("payload")
		if !ok || len(pay) != 400 || pay[0] != 0xAB {
			t.Fatalf("pageSize %d: payload section wrong (%d bytes)", pageSize, len(pay))
		}
		if d, ok := pf.Section("dir"); !ok || string(d) != "directory-bytes" {
			t.Fatalf("pageSize %d: dir section wrong", pageSize)
		}
		if _, ok := pf.Section("missing"); ok {
			t.Fatal("found a section that was never written")
		}
		// Sections start on page boundaries.
		for i := range pf.secs {
			if pf.secs[i].off%uint64(pageSize) != 0 {
				t.Fatalf("section %q at unaligned offset %d", pf.secs[i].Name, pf.secs[i].off)
			}
		}
		if err := pf.VerifyAll(); err != nil {
			t.Fatalf("pageSize %d: VerifyAll: %v", pageSize, err)
		}
	}
}

func TestPagedNotPaged(t *testing.T) {
	if _, err := OpenPaged([]byte("not a paged file at all........")); err != ErrNotPaged {
		t.Fatalf("got %v, want ErrNotPaged", err)
	}
}

// TestPagedDetectsCorruption flips every byte of a paged file in turn
// and requires each flip to be caught by OpenPaged or VerifyAll, and
// every truncation to be caught by OpenPaged.
func TestPagedDetectsCorruption(t *testing.T) {
	data := buildPaged(t, 64)

	verify := func(b []byte) error {
		pf, err := OpenPaged(b)
		if err != nil {
			return err
		}
		return pf.VerifyAll()
	}
	if err := verify(data); err != nil {
		t.Fatalf("pristine file failed verification: %v", err)
	}
	for cut := 0; cut < len(data); cut++ {
		if err := verify(data[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes undetected", cut)
		}
	}
	for off := 0; off < len(data); off++ {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		if err := verify(mut); err == nil {
			t.Fatalf("bit flip at offset %d undetected", off)
		}
	}
}

// TestPagedLazySectionSkipsEagerVerify shows the division of labor:
// corruption inside a lazy section passes OpenPaged but fails
// VerifySection.
func TestPagedLazySectionSkipsEagerVerify(t *testing.T) {
	data := buildPaged(t, 64)
	pf, err := OpenPaged(data)
	if err != nil {
		t.Fatal(err)
	}
	pay, _ := pf.Section("payload")
	// Corrupt a payload byte in place (the slice aliases data).
	pay[10] ^= 0xFF
	if _, err := OpenPaged(data); err != nil {
		t.Fatalf("lazy section corruption should pass OpenPaged, got %v", err)
	}
	if err := pf.VerifySection("payload"); err == nil {
		t.Fatal("VerifySection missed lazy-section corruption")
	}
	if err := pf.VerifySection("dir"); err != nil {
		t.Fatalf("dir section should still verify: %v", err)
	}
}

func TestPagedWriterRejectsMisuse(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewPagedWriter(&buf, KindIndex, 4, 7); err == nil {
		t.Fatal("page size 7 accepted")
	}
	pw, err := NewPagedWriter(&buf, KindIndex, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pw.Write([]byte("x")); err == nil {
		t.Fatal("Write outside a section accepted")
	}
	if err := pw.Begin("a", 0); err != nil {
		t.Fatal(err)
	}
	if err := pw.Begin("a", 0); err == nil {
		t.Fatal("duplicate section name accepted")
	}
}
