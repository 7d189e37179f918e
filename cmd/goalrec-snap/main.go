// Command goalrec-snap inspects and converts goalrec library files.
//
//	goalrec-snap inspect lib.gsnp          print header, sections, ratios
//	goalrec-snap verify  lib.gsnp          whole-file checksum, then every section deep
//	goalrec-snap convert [-format snapshot|json] in out
//
// convert sniffs the input format (JSON lines or snapshot) and writes the
// requested output format through a temp file renamed into place, so the
// output may be the input itself.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"text/tabwriter"

	"goalrec"
	"goalrec/internal/core"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "goalrec-snap:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return errors.New("usage: goalrec-snap inspect|verify|convert ...")
	}
	switch args[0] {
	case "inspect":
		if len(args) != 2 {
			return errors.New("usage: goalrec-snap inspect <file.gsnp>")
		}
		return inspect(args[1])
	case "verify":
		if len(args) != 2 {
			return errors.New("usage: goalrec-snap verify <file.gsnp>")
		}
		return verify(args[1])
	case "convert":
		fs := flag.NewFlagSet("convert", flag.ContinueOnError)
		format := fs.String("format", "snapshot", "output format: snapshot or json")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		if fs.NArg() != 2 {
			return errors.New("usage: goalrec-snap convert [-format snapshot|json] <in> <out>")
		}
		return convert(fs.Arg(0), fs.Arg(1), *format)
	default:
		return fmt.Errorf("unknown subcommand %q (want inspect, verify, or convert)", args[0])
	}
}

// inspect prints the layout from the header, section table, source key and
// stamp alone, then opens the image verified — the one full read — for the
// ledger a process serving it reports.
func inspect(path string) error {
	d, err := core.DescribeSnapshotFile(nil, path)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("%s: snapshot v%d, %d bytes\n", path, d.Version, d.FileBytes)
	fmt.Printf("  implementations %d, actions %d, goals %d, slots %d\n",
		d.Implementations, d.Actions, d.Goals, d.Slots)
	fmt.Printf("  epoch %d, max impl len %d\n", d.Epoch, d.MaxImplLen)
	fmt.Printf("  vocabulary %v\n", d.HasVocabulary)
	fmt.Printf("  GA rows %s\n", gaRows(d))
	if d.SourceKey != "" {
		fmt.Printf("  source key %q\n", d.SourceKey)
	}
	if d.SourceStamp != nil {
		fmt.Printf("  source stamp %s\n", d.SourceStamp)
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  section\toffset\telem\tcount\tbytes\tshare")
	var used uint64
	for _, s := range d.Sections {
		used += s.Bytes
		fmt.Fprintf(tw, "  %s\t%d\t%d\t%d\t%d\t%.1f%%\n",
			s.Name, s.Offset, s.ElemSize, s.Count, s.Bytes,
			100*float64(s.Bytes)/float64(d.FileBytes))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Printf("  header+padding: %d bytes (%.1f%% of file)\n",
		d.FileBytes-used, 100*float64(d.FileBytes-used)/float64(d.FileBytes))
	if d.HasVocabulary {
		// The memory ledger a process serving this file reports under
		// "library" in /v1/metrics, base apart from delta: a file is all base.
		snap, err := goalrec.OpenSnapshotFile(path)
		if err != nil {
			return err
		}
		ledger, err := json.Marshal(snap.Library().Backing())
		if cerr := snap.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("  library ledger when served: %s\n", ledger)
	}
	return nil
}

// gaRows says which goals' GA-idx rows the image stores, and how many
// (action, count) entries they hold: a version-1 image stores every goal's,
// a later one only the rows of goals whose implementations share an action.
func gaRows(d *core.SnapshotDescription) string {
	var n uint64
	for _, s := range d.Sections {
		if s.Name == "ga-actions" {
			n = s.Count
		}
	}
	if d.Version < 2 {
		return fmt.Sprintf("of every goal, %d entries", n)
	}
	return fmt.Sprintf("of goals whose implementations share an action, %d entries", n)
}

func verify(path string) error {
	snap, err := core.OpenSnapshotVerified(nil, path, nil)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	defer snap.Close()
	if err := core.VerifySnapshot(snap); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	lib := snap.Library()
	fmt.Printf("%s: ok (%d implementations, epoch %d)\n", path, lib.NumImplementations(), lib.Epoch())
	return nil
}

func convert(in, out, format string) error {
	if format != "snapshot" && format != "json" {
		return fmt.Errorf("unknown output format %q (want snapshot or json)", format)
	}
	lib, err := goalrec.LoadLibraryFile(in)
	if err != nil {
		return err
	}
	if format == "snapshot" {
		err = lib.SaveSnapshotFile(out, false)
	} else {
		err = writeJSONFile(out, lib)
	}
	if err != nil {
		return err
	}
	fmt.Printf("%s -> %s (%s, %d implementations)\n", in, out, format, lib.NumImplementations())
	return nil
}

// writeJSONFile writes lib as JSON lines to a temp file in path's directory
// and renames it over path. A failed write leaves path as it was, and a
// library mapped from path itself keeps reading the old file to the end.
func writeJSONFile(path string, lib *goalrec.Library) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), ".convert-*.tmp")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			_ = f.Close()
			_ = os.Remove(f.Name())
		}
	}()
	if err = f.Chmod(0o644); err != nil {
		return err
	}
	if err = lib.SaveJSON(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}
