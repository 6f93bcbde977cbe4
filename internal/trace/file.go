package trace

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
)

// DigestFile returns the hex SHA-256 of the file's raw bytes. The digest is
// the machine-independent identity of a recorded trace: the sweep engine
// embeds it in content-addressed keys so the same trace produces the same
// cell no matter where the file lives.
func DigestFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, bufio.NewReaderSize(f, 1<<16)); err != nil {
		return "", fmt.Errorf("trace: digesting %s: %w", path, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// OpenFile opens a trace file, auto-detecting the format from its leading
// bytes: the binary magic "TLBT" followed by the version byte selects the
// v1 fixed-width or v2 block reader, anything else is the text format. The
// caller must Close the returned closer when done reading.
func OpenFile(path string) (BatchReader, io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	br := bufio.NewReaderSize(f, 1<<16)
	head, err := br.Peek(len(binMagic) + 1)
	if err != nil && err != io.EOF {
		f.Close()
		return nil, nil, fmt.Errorf("trace: reading %s: %w", path, err)
	}
	if len(head) >= len(binMagic) && string(head[:len(binMagic)]) == binMagic {
		var (
			r    BatchReader
			rerr error
		)
		if len(head) > len(binMagic) && head[len(binMagic)] == blockVersion {
			r, rerr = NewBlockReader(br)
		} else {
			r, rerr = NewBinaryReader(br)
		}
		if rerr != nil {
			f.Close()
			return nil, nil, fmt.Errorf("trace: %s: %w", path, rerr)
		}
		return r, f, nil
	}
	return NewTextReader(br), f, nil
}
