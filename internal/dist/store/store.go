// Package store is the distributed sweep's crash-safe checkpoint: an
// append-only shard-result store a coordinator commits completed shard
// payloads to, and a restarted coordinator replays instead of recomputing.
//
// Layout (all integers little-endian):
//
//	shards.dat  "SSNDSD1\n" | u16 fpLen | fingerprint            (header)
//	            u32 shard | u32 n | payload[n] | u32 crc32(payload)   ...
//	shards.idx  "SSNDSI1\n" | u16 fpLen | fingerprint            (header)
//	            u32 shard | u64 off | u32 n | u32 payloadCRC
//	            | u32 crc32(previous 20 bytes)                        ...
//
// A commit appends the data record and fsyncs it, then appends the index
// record and fsyncs that: the index only ever names payload bytes that are
// durable. Recovery trusts the index — records are replayed until the
// first short or CRC-failing one, the index is truncated to that last good
// boundary, and the data file is truncated past the last indexed payload,
// so a torn write from a SIGKILL mid-commit costs exactly the shard that
// was in flight. The fingerprint (a hash of the sweep spec) is written at
// creation and must match on open: a checkpoint never resumes under a
// different grid.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

const (
	dataMagic = "SSNDSD1\n"
	idxMagic  = "SSNDSI1\n"
	idxRecLen = 24 // u32 shard + u64 off + u32 n + u32 payloadCRC + u32 recCRC
)

// ErrFingerprint reports a checkpoint created under a different sweep spec.
var ErrFingerprint = errors.New("store: checkpoint fingerprint does not match the sweep spec")

type entry struct {
	off int64 // data-file offset of the record start
	n   uint32
	crc uint32
}

// Store is an append-only shard-result store. All methods are safe for
// concurrent use: commits serialize, reads run concurrently.
type Store struct {
	mu      sync.RWMutex
	data    *os.File
	idx     *os.File
	entries map[int]entry
	dataOff int64 // append position: end of the last indexed record
}

// Create initializes a fresh checkpoint in dir (created if needed),
// truncating any previous contents.
func Create(dir, fingerprint string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	data, err := os.OpenFile(filepath.Join(dir, "shards.dat"), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	idx, err := os.OpenFile(filepath.Join(dir, "shards.idx"), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		data.Close()
		return nil, err
	}
	s := &Store{data: data, idx: idx, entries: map[int]entry{}}
	if err := writeHeader(data, dataMagic, fingerprint); err != nil {
		s.Close()
		return nil, err
	}
	if err := writeHeader(idx, idxMagic, fingerprint); err != nil {
		s.Close()
		return nil, err
	}
	if err := data.Sync(); err != nil {
		s.Close()
		return nil, err
	}
	if err := idx.Sync(); err != nil {
		s.Close()
		return nil, err
	}
	s.dataOff = headerLen(fingerprint)
	return s, nil
}

// Open replays an existing checkpoint in dir, recovering to the last good
// shard boundary (truncating a torn index or data tail). It fails with
// ErrFingerprint when the checkpoint belongs to a different spec, and with
// fs.ErrNotExist when there is no checkpoint to resume.
func Open(dir, fingerprint string) (*Store, error) {
	data, err := os.OpenFile(filepath.Join(dir, "shards.dat"), os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	idx, err := os.OpenFile(filepath.Join(dir, "shards.idx"), os.O_RDWR, 0o644)
	if err != nil {
		data.Close()
		return nil, err
	}
	s := &Store{data: data, idx: idx, entries: map[int]entry{}}
	if err := s.recover(fingerprint); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// writeHeader emits magic | u16 len | fingerprint.
func writeHeader(f *os.File, magic, fp string) error {
	buf := make([]byte, 0, len(magic)+2+len(fp))
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(fp)))
	buf = append(buf, fp...)
	_, err := f.WriteAt(buf, 0)
	return err
}

func headerLen(fp string) int64 { return int64(len(dataMagic) + 2 + len(fp)) }

// readHeader validates magic and fingerprint at the head of f.
func readHeader(f *os.File, magic, fp string) error {
	buf := make([]byte, headerLen(fp))
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, int64(len(buf))), buf); err != nil {
		return fmt.Errorf("store: truncated header: %w", err)
	}
	if string(buf[:len(magic)]) != magic {
		return fmt.Errorf("store: bad magic %q", buf[:len(magic)])
	}
	n := binary.LittleEndian.Uint16(buf[len(magic):])
	if int(n) != len(fp) || string(buf[len(magic)+2:]) != fp {
		return ErrFingerprint
	}
	return nil
}

// recover replays the index, drops the torn tail of both files, and
// rebuilds the committed-shard map.
func (s *Store) recover(fp string) error {
	if err := readHeader(s.data, dataMagic, fp); err != nil {
		return err
	}
	if err := readHeader(s.idx, idxMagic, fp); err != nil {
		return err
	}
	dataSize, err := s.data.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	good := headerLen(fp) // last valid index boundary
	s.dataOff = headerLen(fp)
	rec := make([]byte, idxRecLen)
	for off := good; ; off += idxRecLen {
		if _, err := s.idx.ReadAt(rec, off); err != nil {
			break // short tail (torn final record) or clean EOF
		}
		if crc32.ChecksumIEEE(rec[:20]) != binary.LittleEndian.Uint32(rec[20:]) {
			break // corrupted record: everything after it is untrusted
		}
		e := entry{
			off: int64(binary.LittleEndian.Uint64(rec[4:])),
			n:   binary.LittleEndian.Uint32(rec[12:]),
			crc: binary.LittleEndian.Uint32(rec[16:]),
		}
		end := e.off + 8 + int64(e.n) + 4 // shard + n header, payload, payload CRC
		if end > dataSize {
			break // index names bytes the data file never durably got
		}
		s.entries[int(binary.LittleEndian.Uint32(rec[0:]))] = e
		good = off + idxRecLen
		if end > s.dataOff {
			s.dataOff = end
		}
	}
	if err := s.idx.Truncate(good); err != nil {
		return err
	}
	return s.data.Truncate(s.dataOff)
}

// Commit durably records shard i's payload: data record fsynced first,
// index record fsynced second. Committing an already-committed shard is a
// no-op (replicas may race on a retried shard; first write wins).
func (s *Store) Commit(i int, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[i]; ok {
		return nil
	}
	crc := crc32.ChecksumIEEE(payload)
	rec := make([]byte, 0, 12+len(payload))
	rec = binary.LittleEndian.AppendUint32(rec, uint32(i))
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	rec = append(rec, payload...)
	rec = binary.LittleEndian.AppendUint32(rec, crc)
	if _, err := s.data.WriteAt(rec, s.dataOff); err != nil {
		return err
	}
	if err := s.data.Sync(); err != nil {
		return err
	}
	irec := make([]byte, 0, idxRecLen)
	irec = binary.LittleEndian.AppendUint32(irec, uint32(i))
	irec = binary.LittleEndian.AppendUint64(irec, uint64(s.dataOff))
	irec = binary.LittleEndian.AppendUint32(irec, uint32(len(payload)))
	irec = binary.LittleEndian.AppendUint32(irec, crc)
	irec = binary.LittleEndian.AppendUint32(irec, crc32.ChecksumIEEE(irec))
	end, err := s.idx.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	if _, err := s.idx.WriteAt(irec, end); err != nil {
		return err
	}
	if err := s.idx.Sync(); err != nil {
		return err
	}
	s.entries[i] = entry{off: s.dataOff, n: uint32(len(payload)), crc: crc}
	s.dataOff += int64(len(rec))
	return nil
}

// Has reports whether shard i is committed.
func (s *Store) Has(i int) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.entries[i]
	return ok
}

// Len returns the number of committed shards.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}

// Get reads shard i's payload, verifying its CRC.
func (s *Store) Get(i int) ([]byte, error) {
	s.mu.RLock()
	e, ok := s.entries[i]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("store: shard %d not committed", i)
	}
	payload := make([]byte, e.n)
	if _, err := s.data.ReadAt(payload, e.off+8); err != nil {
		return nil, fmt.Errorf("store: shard %d: %w", i, err)
	}
	if crc32.ChecksumIEEE(payload) != e.crc {
		return nil, fmt.Errorf("store: shard %d payload failed its CRC", i)
	}
	return payload, nil
}

// Close releases the underlying files.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return errors.Join(s.data.Close(), s.idx.Close())
}
