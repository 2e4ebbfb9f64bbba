package fsx

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestMapFileOS(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "blob")
	want := bytes.Repeat([]byte("mapped-bytes/"), 1000)
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := MapFile(OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.Data, want) {
		t.Fatalf("mapped content differs: %d bytes vs %d", len(m.Data), len(want))
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestMapFileEmpty(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "empty")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := MapFile(OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Data) != 0 {
		t.Fatalf("empty file mapped to %d bytes", len(m.Data))
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMapFileFallback(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "blob")
	want := []byte("fallback content")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	ffs := NewFaultFS(OS)
	m, err := MapFile(ffs, path)
	if err != nil {
		t.Fatal(err)
	}
	if m.mapped {
		t.Fatal("FaultFS should not produce a true mapping")
	}
	if !bytes.Equal(m.Data, want) {
		t.Fatalf("fallback content differs")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMapFileMissing(t *testing.T) {
	if _, err := MapFile(OS, filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("expected error for missing file")
	}
}
