package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"crn/internal/guard/failpoint"
)

// A checkpoint is one directory holding everything needed to resume the
// adapted deployment without replaying the whole WAL:
//
//	checkpoints/ckpt-<generation>-<appliedLSN>/
//	    manifest.json   sizes + CRC-32C of every blob, written last
//	    model.bin       promoted model weights (icrn snapshot bytes)
//	    pool.bin        queries pool snapshot (pool.Save bytes, LRU order)
//	    drift.json      drift-window samples
//
// Both directory-name fields are zero-padded hex, so lexicographic order of
// directory names IS (generation, appliedLSN) order — the newest checkpoint
// sorts last. Atomicity comes from the standard temp-dir + rename dance:
// blobs and manifest are written into a ".tmp-" sibling, fsynced, and the
// directory is renamed into place (then the parent fsynced). A reader never
// sees a half-written checkpoint; ".tmp-" leftovers from a crash are inert
// and swept by Prune.

const (
	ckptPrefix    = "ckpt-"
	ckptTmpPrefix = ".tmp-"
	manifestName  = "manifest.json"
	modelBlobName = "model.bin"
	poolBlobName  = "pool.bin"
	driftBlobName = "drift.json"
)

// ErrNoCheckpoint reports that no valid checkpoint exists (fresh data dir,
// or every candidate failed validation).
var ErrNoCheckpoint = errors.New("durable: no valid checkpoint")

// Checkpoint is the in-memory form of one checkpoint, on both the write and
// the read path. Blob semantics (how to decode Model/Pool bytes) belong to
// the caller; this package only guarantees they come back bit-identical.
type Checkpoint struct {
	// Generation is the model generation the checkpoint captures.
	Generation uint64
	// AppliedLSN is the highest WAL LSN whose record is reflected in the
	// checkpointed state; recovery replays strictly newer records.
	AppliedLSN uint64
	// Model is the serialized model weights.
	Model []byte
	// Pool is the serialized queries pool.
	Pool []byte
	// Drift is the drift window's q-errors, oldest first (raw values or
	// histogram bucket edges; the drift monitor restores either).
	Drift []float64
	// WrittenAt records when the checkpoint was persisted.
	WrittenAt time.Time
}

// manifest is the on-disk integrity record. It is written after the blobs,
// so its presence with matching checksums proves the whole directory.
type manifest struct {
	Version    int             `json:"version"`
	Generation uint64          `json:"generation"`
	AppliedLSN uint64          `json:"applied_lsn"`
	WrittenAt  time.Time       `json:"written_at"`
	Files      map[string]fsum `json:"files"`
}

type fsum struct {
	Size int64  `json:"size"`
	CRC  uint32 `json:"crc32c"`
}

func ckptDirName(gen, lsn uint64) string {
	return fmt.Sprintf("%s%016x-%016x", ckptPrefix, gen, lsn)
}

func parseCkptDirName(name string) (gen, lsn uint64, ok bool) {
	rest, found := strings.CutPrefix(name, ckptPrefix)
	if !found || len(rest) != 33 || rest[16] != '-' {
		return 0, 0, false
	}
	g, err1 := strconv.ParseUint(rest[:16], 16, 64)
	l, err2 := strconv.ParseUint(rest[17:], 16, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, false
	}
	return g, l, true
}

// WriteCheckpoint persists ck under dir atomically and returns the final
// checkpoint path. An existing checkpoint for the same (generation,
// appliedLSN) is overwritten (same bytes by construction — promotion
// assigns fresh generations, so collisions only happen on idempotent
// re-writes such as a Close after a no-feedback run).
func WriteCheckpoint(dir string, ck *Checkpoint) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("durable: write checkpoint: %w", err)
	}
	final := filepath.Join(dir, ckptDirName(ck.Generation, ck.AppliedLSN))
	tmp := filepath.Join(dir, ckptTmpPrefix+ckptDirName(ck.Generation, ck.AppliedLSN))
	// A stale temp dir from a crashed writer must not poison this write.
	if err := os.RemoveAll(tmp); err != nil {
		return "", fmt.Errorf("durable: write checkpoint: %w", err)
	}
	if err := os.Mkdir(tmp, 0o755); err != nil {
		return "", fmt.Errorf("durable: write checkpoint: %w", err)
	}
	driftBytes, err := json.Marshal(ck.Drift)
	if err != nil {
		return "", fmt.Errorf("durable: encode drift state: %w", err)
	}
	man := manifest{
		Version:    1,
		Generation: ck.Generation,
		AppliedLSN: ck.AppliedLSN,
		WrittenAt:  ck.WrittenAt,
		Files:      make(map[string]fsum, 3),
	}
	for name, blob := range map[string][]byte{
		modelBlobName: ck.Model,
		poolBlobName:  ck.Pool,
		driftBlobName: driftBytes,
	} {
		if err := writeFileSync(filepath.Join(tmp, name), blob); err != nil {
			return "", err
		}
		man.Files[name] = fsum{Size: int64(len(blob)), CRC: crc32.Checksum(blob, castagnoli)}
	}
	manBytes, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return "", fmt.Errorf("durable: encode manifest: %w", err)
	}
	if err := writeFileSync(filepath.Join(tmp, manifestName), manBytes); err != nil {
		return "", err
	}
	if err := syncDir(tmp); err != nil {
		return "", err
	}
	if err := os.RemoveAll(final); err != nil {
		return "", fmt.Errorf("durable: write checkpoint: %w", err)
	}
	if err := failpoint.Inject(failpoint.CheckpointRename); err != nil {
		return "", fmt.Errorf("durable: publish checkpoint: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return "", fmt.Errorf("durable: publish checkpoint: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return "", err
	}
	return final, nil
}

// listCheckpoints returns the completed checkpoint directory names under
// dir, sorted oldest to newest (lexicographic = (generation, LSN) order).
// Temp leftovers and foreign entries are ignored.
func listCheckpoints(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("durable: list checkpoints: %w", err)
	}
	var names []string
	for _, e := range ents {
		if _, _, ok := parseCkptDirName(e.Name()); ok && e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// readCheckpoint loads and validates one checkpoint directory.
func readCheckpoint(path string) (*Checkpoint, error) {
	manBytes, err := os.ReadFile(filepath.Join(path, manifestName))
	if err != nil {
		return nil, fmt.Errorf("durable: read manifest: %w", err)
	}
	var man manifest
	if err := json.Unmarshal(manBytes, &man); err != nil {
		return nil, fmt.Errorf("durable: decode manifest: %w", err)
	}
	if man.Version != 1 {
		return nil, fmt.Errorf("durable: unsupported checkpoint version %d", man.Version)
	}
	blobs := make(map[string][]byte, len(man.Files))
	for name, sum := range man.Files {
		b, err := os.ReadFile(filepath.Join(path, name))
		if err != nil {
			return nil, fmt.Errorf("durable: read checkpoint blob %s: %w", name, err)
		}
		if int64(len(b)) != sum.Size || crc32.Checksum(b, castagnoli) != sum.CRC {
			return nil, fmt.Errorf("durable: checkpoint blob %s fails checksum", name)
		}
		blobs[name] = b
	}
	for _, required := range []string{modelBlobName, poolBlobName, driftBlobName} {
		if _, ok := blobs[required]; !ok {
			return nil, fmt.Errorf("durable: checkpoint missing blob %s", required)
		}
	}
	var drift []float64
	if err := json.Unmarshal(blobs[driftBlobName], &drift); err != nil {
		return nil, fmt.Errorf("durable: decode drift state: %w", err)
	}
	return &Checkpoint{
		Generation: man.Generation,
		AppliedLSN: man.AppliedLSN,
		Model:      blobs[modelBlobName],
		Pool:       blobs[poolBlobName],
		Drift:      drift,
		WrittenAt:  man.WrittenAt,
	}, nil
}

// LoadCheckpoint returns the newest checkpoint under dir that passes
// validation, falling back to older ones when a manifest or blob is corrupt
// (the point-in-time part of point-in-time recovery: an older checkpoint
// plus a longer WAL replay reaches the same state). ErrNoCheckpoint when
// none qualifies. skipped counts the invalid candidates stepped over.
func LoadCheckpoint(dir string) (ck *Checkpoint, skipped int, err error) {
	names, err := listCheckpoints(dir)
	if err != nil {
		return nil, 0, err
	}
	var lastErr error
	for i := len(names) - 1; i >= 0; i-- {
		ck, err := readCheckpoint(filepath.Join(dir, names[i]))
		if err == nil {
			return ck, skipped, nil
		}
		lastErr = err
		skipped++
	}
	if lastErr != nil {
		return nil, skipped, fmt.Errorf("%w (newest failure: %v)", ErrNoCheckpoint, lastErr)
	}
	return nil, skipped, ErrNoCheckpoint
}

// PruneCheckpoints keeps the newest retain checkpoints under dir and
// removes the rest plus any ".tmp-" leftovers. It returns the number of
// checkpoints removed and the smallest AppliedLSN among those retained —
// the WAL must keep every record after that LSN so each retained checkpoint
// stays independently recoverable. minRetainedLSN is 0 when nothing is
// retained.
func PruneCheckpoints(dir string, retain int) (removed int, minRetainedLSN uint64, err error) {
	if retain < 1 {
		retain = 1
	}
	names, err := listCheckpoints(dir)
	if err != nil {
		return 0, 0, err
	}
	cut := len(names) - retain
	if cut < 0 {
		cut = 0
	}
	for _, name := range names[:cut] {
		if err := os.RemoveAll(filepath.Join(dir, name)); err != nil {
			return removed, 0, fmt.Errorf("durable: prune checkpoint: %w", err)
		}
		removed++
	}
	// Sweep crashed writers' temp dirs while we are here.
	if ents, err := os.ReadDir(dir); err == nil {
		for _, e := range ents {
			if strings.HasPrefix(e.Name(), ckptTmpPrefix) {
				_ = os.RemoveAll(filepath.Join(dir, e.Name()))
			}
		}
	}
	if removed > 0 {
		if err := syncDir(dir); err != nil {
			return removed, 0, err
		}
	}
	minRetainedLSN = ^uint64(0)
	retained := names[cut:]
	for _, name := range retained {
		if _, lsn, ok := parseCkptDirName(name); ok && lsn < minRetainedLSN {
			minRetainedLSN = lsn
		}
	}
	if len(retained) == 0 {
		minRetainedLSN = 0
	}
	return removed, minRetainedLSN, nil
}

// writeFileSync writes data to path and fsyncs before closing.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("durable: write %s: %w", filepath.Base(path), err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("durable: write %s: %w", filepath.Base(path), err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("durable: sync %s: %w", filepath.Base(path), err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("durable: close %s: %w", filepath.Base(path), err)
	}
	return nil
}
