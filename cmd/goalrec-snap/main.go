// Command goalrec-snap inspects and converts goalrec library files.
//
//	goalrec-snap inspect lib.gsnp          print header, sections, ratios
//	goalrec-snap inspect lib.gsnpd         print a delta's ref/inline layout
//	goalrec-snap verify  lib.gsnp          deep-validate every section
//	goalrec-snap convert [-compress] [-format snapshot|binary|json] in out
//	goalrec-snap diff new.gsnp base.gsnp out.gsnpd    write a delta
//	goalrec-snap materialize d.gsnpd base.gsnp out.gsnp
//
// convert sniffs the input format (JSON lines, legacy binary, or snapshot)
// and writes the requested output format — the migration path from
// pre-snapshot library files to the memory-mappable format goalrecd's
// -snapshot-dir store and LoadLibraryFile consume.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
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
		compress := fs.Bool("compress", false, "block-compress posting lists (snapshot output only)")
		format := fs.String("format", "snapshot", "output format: snapshot, binary, or json")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		if fs.NArg() != 2 {
			return errors.New("usage: goalrec-snap convert [-compress] [-format snapshot|binary|json] <in> <out>")
		}
		return convert(fs.Arg(0), fs.Arg(1), *format, *compress)
	case "diff":
		if len(args) != 4 {
			return errors.New("usage: goalrec-snap diff <new.gsnp> <base.gsnp> <out.gsnpd>")
		}
		return diff(args[1], args[2], args[3])
	case "materialize":
		if len(args) != 4 {
			return errors.New("usage: goalrec-snap materialize <delta.gsnpd> <base.gsnp> <out.gsnp>")
		}
		return materialize(args[1], args[2], args[3])
	default:
		return fmt.Errorf("unknown subcommand %q (want inspect, verify, convert, diff, or materialize)", args[0])
	}
}

func inspect(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if core.IsSnapshotDelta(data) {
		return inspectDelta(path, data)
	}
	d, err := core.DescribeSnapshot(data)
	if err != nil {
		return err
	}
	fmt.Printf("%s: snapshot v%d, %d bytes\n", path, d.Version, d.FileBytes)
	fmt.Printf("  implementations %d, actions %d, goals %d, slots %d\n",
		d.Implementations, d.Actions, d.Goals, d.Slots)
	fmt.Printf("  epoch %d, max impl len %d\n", d.Epoch, d.MaxImplLen)
	fmt.Printf("  postings %s, vocabulary %v, length-sorted layout %v\n",
		map[bool]string{true: "block-compressed", false: "raw"}[d.Compressed],
		d.HasVocabulary, d.LenSorted)
	if d.SourceKey != "" {
		fmt.Printf("  source key %q\n", d.SourceKey)
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
	if d.Compressed {
		// Ratio of the compressed posting storage (offsets + blob) to the
		// 4 bytes/entry the raw section would take.
		var compBytes uint64
		for _, s := range d.Sections {
			if s.Name == "postings-compressed-offsets" || s.Name == "postings-compressed-blob" {
				compBytes += s.Bytes
			}
		}
		raw := 4 * d.Slots
		if raw > 0 {
			fmt.Printf("  posting compression: %d -> %d bytes (%.2fx)\n",
				raw, compBytes, float64(raw)/float64(compBytes))
		}
	}
	return nil
}

func inspectDelta(path string, data []byte) error {
	d, err := core.DescribeSnapshotDelta(data)
	if err != nil {
		return err
	}
	fmt.Printf("%s: delta snapshot v%d, %d bytes, epoch %d over base epoch %d\n",
		path, d.Version, d.FileBytes, d.Epoch, d.BaseEpoch)
	fmt.Printf("  implementations %d, actions %d, goals %d, slots %d\n",
		d.Implementations, d.Actions, d.Goals, d.Slots)
	fmt.Printf("  postings %s, vocabulary %v, length-sorted layout %v\n",
		map[bool]string{true: "block-compressed", false: "raw"}[d.Compressed],
		d.HasVocabulary, d.LenSorted)

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  section\telem\tcount\tref-bytes\tinline-bytes\tinline-share")
	for _, s := range d.Sections {
		total := s.RefBytes + s.InlineBytes
		share := 0.0
		if total > 0 {
			share = 100 * float64(s.InlineBytes) / float64(total)
		}
		fmt.Fprintf(tw, "  %s\t%d\t%d\t%d\t%d\t%.1f%%\n",
			s.Name, s.ElemSize, s.Count, s.RefBytes, s.InlineBytes, share)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	logical := d.RefBytes + d.InlineBytes
	if logical > 0 {
		fmt.Printf("  references %d of %d logical bytes (%.1f%%); delta file is %.1f%% of the materialized payload\n",
			d.RefBytes, logical, 100*float64(d.RefBytes)/float64(logical),
			100*float64(d.FileBytes)/float64(logical))
	}
	return nil
}

func diff(newPath, basePath, outPath string) error {
	newData, err := os.ReadFile(newPath)
	if err != nil {
		return err
	}
	baseData, err := os.ReadFile(basePath)
	if err != nil {
		return err
	}
	snap, err := core.OpenSnapshotBytes(newData)
	if err != nil {
		return fmt.Errorf("%s: %w", newPath, err)
	}
	defer snap.Close()
	nd, err := core.DescribeSnapshot(newData)
	if err != nil {
		return err
	}
	base, err := core.NewSnapshotBase(baseData)
	if err != nil {
		return fmt.Errorf("%s: %w", basePath, err)
	}
	opts := core.SnapshotOptions{CompressPostings: nd.Compressed}
	if err := core.WriteSnapshotDiffFile(outPath, snap.Library(), snap.Vocabulary(), opts, base); err != nil {
		return err
	}
	// Prove the round trip before reporting success: materializing the delta
	// over the base must reproduce the input snapshot bit for bit.
	delta, err := os.ReadFile(outPath)
	if err != nil {
		return err
	}
	img, err := core.MaterializeDelta(delta, base)
	if err != nil {
		return fmt.Errorf("verifying %s: %w", outPath, err)
	}
	if !bytes.Equal(img, newData) {
		return fmt.Errorf("verifying %s: materialized image differs from %s (%d vs %d bytes)", outPath, newPath, len(img), len(newData))
	}
	fmt.Printf("%s -> %s: %d of %d bytes (%.1f%%), verified against base %s\n",
		newPath, outPath, len(delta), len(newData),
		100*float64(len(delta))/float64(len(newData)), basePath)
	return nil
}

func materialize(deltaPath, basePath, outPath string) error {
	delta, err := os.ReadFile(deltaPath)
	if err != nil {
		return err
	}
	baseData, err := os.ReadFile(basePath)
	if err != nil {
		return err
	}
	base, err := core.NewSnapshotBase(baseData)
	if err != nil {
		return fmt.Errorf("%s: %w", basePath, err)
	}
	img, err := core.MaterializeDelta(delta, base)
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, img, 0o644); err != nil {
		return err
	}
	snap, err := core.OpenSnapshotBytes(img)
	if err != nil {
		return fmt.Errorf("verifying %s: %w", outPath, err)
	}
	defer snap.Close()
	fmt.Printf("%s + %s -> %s (%d bytes, epoch %d, %d implementations)\n",
		deltaPath, basePath, outPath, len(img), snap.Library().Epoch(), snap.Library().NumImplementations())
	return nil
}

func verify(path string) error {
	snap, err := core.OpenSnapshot(path)
	if err != nil {
		return err
	}
	defer snap.Close()
	if err := core.VerifySnapshot(snap); err != nil {
		return err
	}
	lib := snap.Library()
	fmt.Printf("%s: ok (%d implementations, epoch %d)\n", path, lib.NumImplementations(), lib.Epoch())
	return nil
}

func convert(in, out, format string, compress bool) error {
	switch format {
	case "snapshot", "binary", "json":
	default:
		return fmt.Errorf("unknown output format %q (want snapshot, binary, or json)", format)
	}
	lib, err := goalrec.LoadLibraryFile(in)
	if err != nil {
		return err
	}
	switch format {
	case "snapshot":
		if err := lib.SaveSnapshotFile(out, compress); err != nil {
			return err
		}
	case "binary":
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		if err := lib.SaveBinary(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	case "json":
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		if err := lib.SaveJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown output format %q (want snapshot, binary, or json)", format)
	}
	fmt.Printf("%s -> %s (%s, %d implementations)\n", in, out, format, lib.NumImplementations())
	return nil
}
