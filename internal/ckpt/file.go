package ckpt

import (
	"io"
	"os"
)

// WriteFileAtomic writes path through write: the stream goes to a
// temporary sibling that is renamed into place only once write and the
// close both succeed, so a failed or interrupted write leaves the
// previous file (or nothing), never a truncated one. Every checkpoint
// file — Simulation.CheckpointFile and the CLI's -checkpoint, local or
// remote — is written here.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}
