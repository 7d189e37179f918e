// Command goalgen synthesizes the paper's two evaluation scenarios and
// writes them to disk for offline experimentation:
//
//	goalgen -dataset foodmart -scale 0.1 -out ./data/foodmart
//	goalgen -dataset 43things -scale 1.0 -out ./data/43things
//
// Each run produces, inside the output directory:
//
//	library.gsnp    — the goal-implementation library as a snapshot whose
//	                  vocabulary names action and goal i by the decimal
//	                  string of i, so ids are preserved and any goalrec tool
//	                  reads it (goalrec -library, goalrecd -library,
//	                  goalrec-snap convert)
//	activities.csv  — one evaluation activity per line (numeric action ids,
//	                  which are therefore also the library's action names)
//	sequences.csv   — the same activities in performed order (for
//	                  order-sensitive comparators)
//	stats.txt       — the library's summary statistics
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"goalrec/internal/core"
	"goalrec/internal/dataset"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "goalgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("goalgen", flag.ContinueOnError)
	name := fs.String("dataset", "foodmart", "foodmart | 43things | curriculum")
	scale := fs.Float64("scale", 0.1, "dataset scale (1.0 = the paper's full size)")
	seed := fs.Uint64("seed", 1, "generation seed")
	out := fs.String("out", ".", "output directory (created if missing)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var (
		ds  *dataset.Dataset
		err error
	)
	switch *name {
	case "foodmart":
		ds, err = dataset.GenerateFoodMart(dataset.FoodMartConfig{Scale: *scale, Seed: *seed})
	case "43things":
		ds, err = dataset.GenerateFortyThreeThings(dataset.FortyThreeThingsConfig{Scale: *scale, Seed: *seed})
	case "curriculum":
		cfg := dataset.CurriculumConfig{Seed: *seed}
		cfg.Students = int(500 * *scale)
		ds, err = dataset.GenerateCurriculum(cfg)
	default:
		return fmt.Errorf("unknown dataset %q (want foodmart, 43things or curriculum)", *name)
	}
	if err != nil {
		return err
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	if err := core.WriteSnapshotFile(filepath.Join(*out, "library.gsnp"), ds.Library, numericVocabulary(ds.Library), core.SnapshotOptions{}); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(*out, "activities.csv"), func(f *os.File) error {
		return dataset.WriteActivityIDsCSV(f, ds.Activities())
	}); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(*out, "sequences.csv"), func(f *os.File) error {
		return dataset.WriteActivityIDsCSV(f, ds.Sequences())
	}); err != nil {
		return err
	}
	stats := ds.Library.Stats()
	if err := writeFile(filepath.Join(*out, "stats.txt"), func(f *os.File) error {
		_, err := fmt.Fprintf(f, "%s\nusers=%d\n", stats, len(ds.Users))
		return err
	}); err != nil {
		return err
	}
	fmt.Printf("wrote %s dataset to %s\n  %s\n  users=%d\n", ds.Name, *out, stats, len(ds.Users))
	return nil
}

// numericVocabulary names every action and goal id of lib by its decimal
// string; interning them in id order makes each name map back to its id.
func numericVocabulary(lib *core.Library) *core.Vocabulary {
	v := core.NewVocabulary()
	for i := 0; i < lib.NumActions(); i++ {
		v.Actions.Intern(strconv.Itoa(i))
	}
	for i := 0; i < lib.NumGoals(); i++ {
		v.Goals.Intern(strconv.Itoa(i))
	}
	return v
}

func writeFile(path string, fill func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
