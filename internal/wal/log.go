package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Frame layout: | length uint32 LE | CRC32C uint32 LE | payload |.
const (
	frameHeaderSize = 8
	maxRecordLen    = 1 << 30
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

const (
	segPrefix  = "wal-"
	segSuffix  = ".seg"
	ckptPrefix = "checkpoint-"
	ckptSuffix = ".ckpt"
	metaName   = "META"

	lockFileName = "LOCK"
)

func segName(startLSN uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, startLSN, segSuffix)
}

func ckptName(lsn uint64) string {
	return fmt.Sprintf("%s%016x%s", ckptPrefix, lsn, ckptSuffix)
}

// parseSeqName extracts the hex sequence number from names such as
// wal-0000000000000010.seg given its prefix and suffix.
func parseSeqName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hex := name[len(prefix) : len(name)-len(suffix)]
	if len(hex) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// appendFrame appends one framed record to buf and returns the result.
func appendFrame(buf, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// segScan is the result of scanning one segment's bytes.
type segScan struct {
	// records holds the payloads of every valid record, in order.
	records [][]byte
	// goodLen is the byte offset just past the last valid record.
	goodLen int64
	// torn reports trailing damage consistent with a crashed write:
	// a short header/payload, or a CRC-bad final frame.
	torn bool
	// midlog reports damage that cannot be a torn tail: a CRC-bad or
	// oversized frame followed by at least one complete frame whose
	// CRC verifies. Skipping it would replay a different history.
	midlog bool
}

// scanSegment walks the framed records in data, classifying any damage.
// Torn vs mid-log is decided by lookahead: if a later complete frame
// checks out, the damage is in the middle of acknowledged history.
func scanSegment(data []byte) segScan {
	var s segScan
	off := int64(0)
	n := int64(len(data))
	for off < n {
		if n-off < frameHeaderSize {
			s.torn = true
			break
		}
		length := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if length > maxRecordLen {
			s.torn = true
			if validFrameAfter(data[off+frameHeaderSize:]) {
				s.midlog = true
			}
			break
		}
		if n-off-frameHeaderSize < length {
			s.torn = true
			break
		}
		payload := data[off+frameHeaderSize : off+frameHeaderSize+length]
		if crc32.Checksum(payload, crcTable) != sum {
			s.torn = true
			if validFrameAfter(data[off+frameHeaderSize+length:]) {
				s.midlog = true
			}
			break
		}
		s.records = append(s.records, payload)
		off += frameHeaderSize + length
		s.goodLen = off
	}
	return s
}

// validFrameAfter reports whether data starts a complete frame whose
// CRC verifies, scanning forward over any residual garbage bytes is
// deliberately NOT done: a frame boundary immediately after the bad
// frame is the only placement a legitimate writer could have produced.
func validFrameAfter(data []byte) bool {
	if int64(len(data)) < frameHeaderSize {
		return false
	}
	length := int64(binary.LittleEndian.Uint32(data[0:4]))
	if length > maxRecordLen || int64(len(data))-frameHeaderSize < length {
		return false
	}
	payload := data[frameHeaderSize : frameHeaderSize+length]
	return crc32.Checksum(payload, crcTable) == binary.LittleEndian.Uint32(data[4:8])
}

// listSeqFiles returns the sorted sequence numbers of all files in dir
// matching prefix/suffix (segments or checkpoints).
func listSeqFiles(fs FS, dir, prefix, suffix string) ([]uint64, error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, name := range names {
		if v, ok := parseSeqName(name, prefix, suffix); ok {
			seqs = append(seqs, v)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// logWriter appends framed records to the current segment, rotating to
// a fresh segment once segSize is exceeded. It does not decide sync
// policy — the store calls sync() at the cadence the policy dictates.
type logWriter struct {
	fs      FS
	dir     string
	segSize int64

	f     File          // current segment
	w     *bufio.Writer // buffers frames; flushed before any sync
	start uint64        // LSN of the current segment's first record
	count uint64        // records appended to the current segment
	bytes int64         // bytes appended to the current segment
	// unsynced reports records appended since the last successful sync,
	// so an interval sync with nothing to make durable can be skipped.
	unsynced bool
}

// openLogWriter positions the writer to append records starting at
// nextLSN. If a segment already holds records [start, nextLSN), it is
// reopened for append; otherwise a new segment named for nextLSN is
// created.
func openLogWriter(fs FS, dir string, segSize int64, segStart uint64, segBytes int64, segCount uint64, nextLSN uint64) (*logWriter, error) {
	lw := &logWriter{fs: fs, dir: dir, segSize: segSize}
	if segCount > 0 && segStart+segCount == nextLSN {
		f, err := fs.OpenAppend(filepath.Join(dir, segName(segStart)))
		if err != nil {
			return nil, err
		}
		lw.f = f
		lw.start = segStart
		lw.count = segCount
		lw.bytes = segBytes
	} else {
		f, err := fs.Create(filepath.Join(dir, segName(nextLSN)))
		if err != nil {
			return nil, err
		}
		if err := fs.SyncDir(dir); err != nil {
			f.Close()
			return nil, err
		}
		lw.f = f
		lw.start = nextLSN
	}
	lw.w = bufio.NewWriterSize(lw.f, 1<<16)
	return lw, nil
}

// append frames payload onto the current segment, rotating first if the
// segment is full. It does not sync.
func (lw *logWriter) append(payload []byte) error {
	if lw.bytes >= lw.segSize && lw.count > 0 {
		if err := lw.rotate(); err != nil {
			return err
		}
	}
	frame := appendFrame(nil, payload)
	if _, err := lw.w.Write(frame); err != nil {
		return err
	}
	lw.count++
	lw.bytes += int64(len(frame))
	lw.unsynced = true
	return nil
}

// rotate syncs and closes the current segment and opens a fresh one
// whose name is the next LSN.
func (lw *logWriter) rotate() error {
	if err := lw.sync(); err != nil {
		return err
	}
	if err := lw.f.Close(); err != nil {
		return err
	}
	next := lw.start + lw.count
	f, err := lw.fs.Create(filepath.Join(lw.dir, segName(next)))
	if err != nil {
		return err
	}
	if err := lw.fs.SyncDir(lw.dir); err != nil {
		f.Close()
		return err
	}
	lw.f = f
	lw.w = bufio.NewWriterSize(f, 1<<16)
	lw.start = next
	lw.count = 0
	lw.bytes = 0
	return nil
}

// flush drains the buffer to the OS without fsyncing.
func (lw *logWriter) flush() error { return lw.w.Flush() }

// sync flushes the buffer and fsyncs the segment.
func (lw *logWriter) sync() error {
	if err := lw.w.Flush(); err != nil {
		return err
	}
	if err := lw.f.Sync(); err != nil {
		return err
	}
	lw.unsynced = false
	return nil
}

// close syncs and closes the current segment.
func (lw *logWriter) close() error {
	err := lw.sync()
	if cerr := lw.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// crash abandons buffered bytes and closes the file without flushing or
// syncing — simulating process death for tests.
func (lw *logWriter) crash() {
	lw.w = bufio.NewWriterSize(lw.f, 1) // drop buffered frames
	_ = lw.f.Close()
}
