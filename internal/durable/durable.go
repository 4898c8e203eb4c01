// Package durable provides crash-safe snapshot persistence for the
// COVIDKG store, knowledge graph, and trained models — the substitute
// for the durability a real sharded MongoDB deployment gives the
// paper's 965 GB corpus.
//
// A snapshot directory holds numbered generations. Writing generation G
// proceeds strictly as:
//
//  1. each data file is written to g<G>-<name>.tmp, flushed, fsynced,
//     and renamed to g<G>-<name> (never over a live file);
//  2. MANIFEST-<G> — the file list with per-file CRC32 checksums and
//     sizes, itself checksummed — is written the same way;
//  3. CURRENT, a one-line pointer to MANIFEST-<G>, is atomically
//     replaced last. This is the commit point.
//
// A reader therefore always finds a complete snapshot: it follows
// CURRENT, verifies the manifest and every file checksum, and if
// anything is torn or corrupt falls back to the newest older generation
// that verifies, reporting what it discarded and why. A crash at any
// point of a write leaves the previous generation untouched.
package durable

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"covidkg/internal/faultfs"
)

const (
	currentFile    = "CURRENT"
	manifestPrefix = "MANIFEST-"
	genPrefix      = "g"
	tmpSuffix      = ".tmp"
	// manifestVersion is bumped when the on-disk layout changes.
	manifestVersion = 1
	// defaultKeep is how many committed generations survive GC.
	defaultKeep = 2
)

// ErrNoSnapshot reports a directory with no committed snapshot at all
// (neither a CURRENT pointer nor any MANIFEST), missing directories
// included: there is nothing to restore. A directory whose generations
// all fail verification returns a different error.
var ErrNoSnapshot = errors.New("durable: no committed snapshot")

// FileEntry describes one data file inside a manifest.
type FileEntry struct {
	Name string `json:"name"` // logical name, e.g. "publications.jsonl"
	Path string `json:"path"` // physical name, e.g. "g000003-publications.jsonl"
	CRC  uint32 `json:"crc32"`
	Size int64  `json:"size"`
}

// manifest is the JSON body of a MANIFEST-<gen> file.
type manifest struct {
	Version    int         `json:"version"`
	Generation uint64      `json:"generation"`
	Files      []FileEntry `json:"files"`
}

// Discard records one generation the loader examined and rejected.
type Discard struct {
	Generation uint64 `json:"generation"`
	Reason     string `json:"reason"`
}

// Report tells the caller exactly what recovery did: which generation
// was loaded, how it was found, which files it contains, and which
// newer generations were discarded as torn or corrupt.
type Report struct {
	Generation uint64    `json:"generation"`
	Source     string    `json:"source"` // "current" or "scan"
	Recovered  []string  `json:"recovered"`
	Discarded  []Discard `json:"discarded,omitempty"`
}

// String renders the report for logs.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "recovered generation %d via %s (%d files)", r.Generation, r.Source, len(r.Recovered))
	for _, d := range r.Discarded {
		fmt.Fprintf(&b, "; discarded gen %d: %s", d.Generation, d.Reason)
	}
	return b.String()
}

// Snapshotter reads and writes snapshot generations in one directory.
type Snapshotter struct {
	dir  string
	fs   faultfs.FS
	keep int
}

// Option configures a Snapshotter.
type Option func(*Snapshotter)

// WithFS substitutes the filesystem — tests inject faultfs.Faulty here.
func WithFS(fs faultfs.FS) Option {
	return func(s *Snapshotter) {
		if fs != nil {
			s.fs = fs
		}
	}
}

// WithKeep sets how many committed generations to retain (min 1).
func WithKeep(n int) Option {
	return func(s *Snapshotter) {
		if n >= 1 {
			s.keep = n
		}
	}
}

// NewSnapshotter builds a snapshotter over dir. The directory is
// created on the first Begin, not here.
func NewSnapshotter(dir string, opts ...Option) *Snapshotter {
	s := &Snapshotter{dir: dir, fs: faultfs.OS{}, keep: defaultKeep}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Dir returns the snapshot directory.
func (s *Snapshotter) Dir() string { return s.dir }

// ---------------------------------------------------------------------
// writing

// Txn is one in-flight snapshot generation. Files are created with
// Create/WriteFile; nothing is visible to readers until Commit replaces
// CURRENT. Abandoning a Txn without Commit leaves only unreferenced
// g<gen>-* files, which the next committed generation's GC removes.
type Txn struct {
	s       *Snapshotter
	gen     uint64
	entries []FileEntry
	open    map[string]bool
}

// Begin starts the next snapshot generation. It scans existing
// manifests so generation numbers always increase, even across process
// restarts and after partially committed crashes.
func (s *Snapshotter) Begin() (*Txn, error) {
	if err := s.fs.MkdirAll(s.dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: begin: %w", err)
	}
	gen := uint64(0)
	if entries, err := s.fs.ReadDir(s.dir); err == nil {
		for _, e := range entries {
			if g, ok := parseGen(e.Name()); ok && g > gen {
				gen = g
			}
		}
	}
	return &Txn{s: s, gen: gen + 1, open: map[string]bool{}}, nil
}

// Generation returns the generation number this Txn will commit as.
func (t *Txn) Generation() uint64 { return t.gen }

// fileWriter streams one data file: bytes flow through a CRC and into
// the tmp file; Close flushes, fsyncs, renames into place, and records
// the manifest entry.
type fileWriter struct {
	t      *Txn
	name   string
	tmp    string
	final  string
	f      faultfs.File
	bw     *bufio.Writer
	crc    uint32
	size   int64
	closed bool
}

// Create opens a streaming writer for one logical file name. The
// caller must Close it before Commit.
func (t *Txn) Create(name string) (io.WriteCloser, error) {
	if strings.ContainsAny(name, "/\\") || name == "" {
		return nil, fmt.Errorf("durable: bad file name %q", name)
	}
	if t.open[name] {
		return nil, fmt.Errorf("durable: %q already written in this txn", name)
	}
	physical := fmt.Sprintf("%s%06d-%s", genPrefix, t.gen, name)
	tmp := filepath.Join(t.s.dir, physical+tmpSuffix)
	f, err := t.s.fs.Create(tmp)
	if err != nil {
		return nil, fmt.Errorf("durable: create %s: %w", name, err)
	}
	t.open[name] = true
	return &fileWriter{
		t: t, name: name, tmp: tmp,
		final: filepath.Join(t.s.dir, physical),
		f:     f, bw: bufio.NewWriter(f),
	}, nil
}

func (w *fileWriter) Write(p []byte) (int, error) {
	n, err := w.bw.Write(p)
	w.crc = crc32.Update(w.crc, crc32.IEEETable, p[:n])
	w.size += int64(n)
	return n, err
}

func (w *fileWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	err := w.bw.Flush()
	if err == nil {
		err = w.f.Sync()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = w.t.s.fs.Rename(w.tmp, w.final)
	}
	if err != nil {
		return fmt.Errorf("durable: write %s: %w", w.name, err)
	}
	w.t.entries = append(w.t.entries, FileEntry{
		Name: w.name,
		Path: filepath.Base(w.final),
		CRC:  w.crc,
		Size: w.size,
	})
	return nil
}

// WriteFile writes one whole data file in a single call.
func (t *Txn) WriteFile(name string, data []byte) error {
	w, err := t.Create(name)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		w.Close()
		return fmt.Errorf("durable: write %s: %w", name, err)
	}
	return w.Close()
}

// Commit seals the generation: the checksummed manifest is written and
// fsynced, then CURRENT is atomically repointed. Only after CURRENT's
// rename is the new generation the one readers see.
func (t *Txn) Commit() error {
	sort.Slice(t.entries, func(i, j int) bool { return t.entries[i].Name < t.entries[j].Name })
	body, err := json.Marshal(manifest{
		Version:    manifestVersion,
		Generation: t.gen,
		Files:      t.entries,
	})
	if err != nil {
		return fmt.Errorf("durable: commit: %w", err)
	}
	manifestName := fmt.Sprintf("%s%06d", manifestPrefix, t.gen)
	if err := atomicWrite(t.s.fs, filepath.Join(t.s.dir, manifestName), sealEnvelope(body)); err != nil {
		return fmt.Errorf("durable: commit manifest: %w", err)
	}
	if err := atomicWrite(t.s.fs, filepath.Join(t.s.dir, currentFile), []byte(manifestName+"\n")); err != nil {
		return fmt.Errorf("durable: commit CURRENT: %w", err)
	}
	t.s.gc(t.gen)
	return nil
}

// gc removes generations older than the keep window plus any leftover
// tmp files. Failures are ignored: stale files cost disk, not
// correctness, and the next commit retries.
func (s *Snapshotter) gc(committed uint64) {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return
	}
	var floor uint64
	if committed > uint64(s.keep-1) {
		floor = committed - uint64(s.keep-1)
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, tmpSuffix) {
			_ = s.fs.Remove(filepath.Join(s.dir, name))
			continue
		}
		if g, ok := parseGen(name); ok && g < floor {
			_ = s.fs.Remove(filepath.Join(s.dir, name))
		}
	}
}

// parseGen extracts the generation number from MANIFEST-<g> and
// g<g>-<name> file names.
func parseGen(name string) (uint64, bool) {
	var digits string
	switch {
	case strings.HasPrefix(name, manifestPrefix):
		digits = strings.TrimPrefix(name, manifestPrefix)
	case strings.HasPrefix(name, genPrefix):
		rest := strings.TrimPrefix(name, genPrefix)
		i := strings.IndexByte(rest, '-')
		if i <= 0 {
			return 0, false
		}
		digits = rest[:i]
	default:
		return 0, false
	}
	digits = strings.TrimSuffix(digits, tmpSuffix)
	g, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	return g, true
}

// ---------------------------------------------------------------------
// reading

// Snapshot is one fully verified generation: every file listed in its
// manifest has been read and its checksum confirmed before the
// Snapshot is handed out, so a caller can never observe a partial mix
// of generations.
type Snapshot struct {
	Generation uint64
	files      map[string][]byte
	order      []string
}

// Names returns the logical file names in the snapshot, sorted.
func (sn *Snapshot) Names() []string { return sn.order }

// Has reports whether the snapshot contains the named file.
func (sn *Snapshot) Has(name string) bool {
	_, ok := sn.files[name]
	return ok
}

// ReadFile returns the verified contents of one logical file.
func (sn *Snapshot) ReadFile(name string) ([]byte, error) {
	b, ok := sn.files[name]
	if !ok {
		return nil, fmt.Errorf("durable: snapshot has no file %q", name)
	}
	return b, nil
}

// Load recovers the newest complete snapshot. It first follows
// CURRENT; if the pointed-to generation fails verification (torn
// manifest, missing file, checksum mismatch) it scans all manifests
// newest-first and returns the first generation that verifies in full.
// Every rejected generation is recorded in the report.
func (s *Snapshotter) Load() (*Snapshot, *Report, error) {
	report := &Report{}
	tried := map[string]bool{}

	// 1. the CURRENT pointer
	if b, err := s.fs.ReadFile(filepath.Join(s.dir, currentFile)); err == nil {
		name := strings.TrimSpace(string(b))
		if strings.HasPrefix(name, manifestPrefix) && !strings.ContainsAny(name, "/\\") {
			tried[name] = true
			if sn, why := s.loadManifest(name); sn != nil {
				report.Generation = sn.Generation
				report.Source = "current"
				report.Recovered = sn.Names()
				return sn, report, nil
			} else {
				g, _ := parseGen(name)
				report.Discarded = append(report.Discarded, Discard{Generation: g, Reason: why})
			}
		} else {
			report.Discarded = append(report.Discarded, Discard{Reason: fmt.Sprintf("CURRENT is corrupt: %q", name)})
		}
	}

	// 2. fall back: scan manifests newest-first
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		if len(report.Discarded) > 0 {
			return nil, report, fmt.Errorf("durable: load %s: no verifiable generation (%s)", s.dir, report)
		}
		return nil, report, fmt.Errorf("%w: %s", ErrNoSnapshot, s.dir)
	}
	var names []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), manifestPrefix) && !strings.HasSuffix(e.Name(), tmpSuffix) {
			names = append(names, e.Name())
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	for _, name := range names {
		if tried[name] {
			continue
		}
		if sn, why := s.loadManifest(name); sn != nil {
			report.Generation = sn.Generation
			report.Source = "scan"
			report.Recovered = sn.Names()
			return sn, report, nil
		} else {
			g, _ := parseGen(name)
			report.Discarded = append(report.Discarded, Discard{Generation: g, Reason: why})
		}
	}
	if len(report.Discarded) > 0 {
		return nil, report, fmt.Errorf("durable: load %s: no verifiable generation (%s)", s.dir, report)
	}
	return nil, report, fmt.Errorf("%w: %s", ErrNoSnapshot, s.dir)
}

// loadManifest verifies one manifest and all its files; on success the
// returned snapshot holds the verified bytes. On failure the second
// return is the human-readable reason.
func (s *Snapshotter) loadManifest(name string) (*Snapshot, string) {
	raw, err := s.fs.ReadFile(filepath.Join(s.dir, name))
	if err != nil {
		return nil, fmt.Sprintf("manifest unreadable: %v", err)
	}
	body, err := openEnvelope(raw)
	if err != nil {
		return nil, fmt.Sprintf("manifest corrupt: %v", err)
	}
	var m manifest
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Sprintf("manifest unparseable: %v", err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Sprintf("unsupported manifest version %d", m.Version)
	}
	sn := &Snapshot{Generation: m.Generation, files: map[string][]byte{}}
	for _, fe := range m.Files {
		if strings.ContainsAny(fe.Path, "/\\") {
			return nil, fmt.Sprintf("file %s: bad path %q", fe.Name, fe.Path)
		}
		b, err := s.fs.ReadFile(filepath.Join(s.dir, fe.Path))
		if err != nil {
			return nil, fmt.Sprintf("file %s missing: %v", fe.Name, err)
		}
		if int64(len(b)) != fe.Size {
			return nil, fmt.Sprintf("file %s truncated: %d bytes, manifest says %d", fe.Name, len(b), fe.Size)
		}
		if crc := crc32.ChecksumIEEE(b); crc != fe.CRC {
			return nil, fmt.Sprintf("file %s checksum mismatch: %08x != %08x", fe.Name, crc, fe.CRC)
		}
		sn.files[fe.Name] = b
		sn.order = append(sn.order, fe.Name)
	}
	sort.Strings(sn.order)
	return sn, ""
}

// ---------------------------------------------------------------------
// manifest and CURRENT files

// atomicWrite writes data to path via tmp → flush → fsync → rename.
func atomicWrite(fs faultfs.FS, path string, data []byte) error {
	tmp := path + tmpSuffix
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return fs.Rename(tmp, path)
}

const envelopeMagic = "CKG1"

// sealEnvelope prepends a "CKG1 <crc32hex>\n" header to data so the
// manifest carries its own integrity check.
func sealEnvelope(data []byte) []byte {
	header := fmt.Sprintf("%s %08x\n", envelopeMagic, crc32.ChecksumIEEE(data))
	return append([]byte(header), data...)
}

// openEnvelope verifies and strips the envelope header.
func openEnvelope(raw []byte) ([]byte, error) {
	i := -1
	for j, c := range raw {
		if c == '\n' {
			i = j
			break
		}
	}
	if i < 0 {
		return nil, errors.New("missing envelope header")
	}
	var crc uint32
	if _, err := fmt.Sscanf(string(raw[:i]), envelopeMagic+" %08x", &crc); err != nil {
		return nil, fmt.Errorf("bad envelope header: %w", err)
	}
	body := raw[i+1:]
	if got := crc32.ChecksumIEEE(body); got != crc {
		return nil, fmt.Errorf("envelope checksum mismatch: %08x != %08x", got, crc)
	}
	return body, nil
}
