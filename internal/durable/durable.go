// Package durable holds the two routines dismem's on-disk formats
// share: a schema fingerprint over a type's reflected wire shape, and
// an atomic file writer. The checkpoint envelope (checkpoint_io.go)
// and the run store (internal/runstore) both build on them, so a
// drifted build is rejected the same way everywhere and a crash never
// leaves a half-written file at a published path.
package durable

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
)

// Fingerprint digests the reflected shape of t — every exported field
// name, JSON tag and type, recursively — so a file written by a build
// whose types drifted (a renamed field, a changed type) is rejected up
// front instead of half-decoding.
func Fingerprint(t reflect.Type) [sha256.Size]byte {
	var b strings.Builder
	describeType(&b, t, map[reflect.Type]bool{})
	return sha256.Sum256([]byte(b.String()))
}

var jsonMarshalerType = reflect.TypeOf((*json.Marshaler)(nil)).Elem()

// describeType appends a canonical structural description of t.
// Recursive types (CursorState, DistState) are expanded once and
// referenced by name afterwards. Types with custom JSON marshaling are
// tagged as such: their wire form is their method's business, and the
// tag still changes the fingerprint if such a type replaces a plain
// one.
func describeType(b *strings.Builder, t reflect.Type, visited map[reflect.Type]bool) {
	switch t.Kind() {
	case reflect.Pointer:
		b.WriteByte('*')
		describeType(b, t.Elem(), visited)
	case reflect.Slice:
		b.WriteString("[]")
		describeType(b, t.Elem(), visited)
	case reflect.Array:
		fmt.Fprintf(b, "[%d]", t.Len())
		describeType(b, t.Elem(), visited)
	case reflect.Map:
		b.WriteString("map[")
		describeType(b, t.Key(), visited)
		b.WriteByte(']')
		describeType(b, t.Elem(), visited)
	case reflect.Struct:
		name := t.String()
		if visited[t] {
			b.WriteString(name)
			return
		}
		visited[t] = true
		if t.Implements(jsonMarshalerType) || reflect.PointerTo(t).Implements(jsonMarshalerType) {
			b.WriteString(name)
			b.WriteString("(custom-json)")
			return
		}
		b.WriteString(name)
		b.WriteByte('{')
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if f.PkgPath != "" {
				continue // unexported: not on the wire
			}
			fmt.Fprintf(b, "%s`%s`:", f.Name, f.Tag.Get("json"))
			describeType(b, f.Type, visited)
			b.WriteByte(';')
		}
		b.WriteByte('}')
	default:
		b.WriteString(t.String())
	}
}

// WriteFile replaces path atomically with the bytes write produces:
// they go to a temporary file in the same directory (named
// <base>.tmp*), which is fsynced and renamed over path, so a crash at
// any instant leaves either the old file or the new one — never a torn
// one. The directory entry is fsynced after the rename where the
// platform supports it. write's error is returned unchanged; every
// other error names the file it concerns.
func WriteFile(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := write(tmp); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	name := tmp.Name()
	tmp = nil
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	if d, err := os.Open(dir); err == nil {
		// Persist the rename itself; ignore failures — some filesystems
		// reject directory fsync, and the data file is already durable.
		_ = d.Sync()
		d.Close()
	}
	return nil
}
