// Package cubecli implements the ddccube command: build a Dynamic Data
// Cube from CSV point data, persist it as a snapshot, and run range-sum
// queries, point reads and updates against it. The command logic lives
// here (rather than in package main) so it is fully unit-testable.
package cubecli

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"ddc"
)

// Run dispatches a ddccube invocation and returns the process exit code.
func Run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	var err error
	switch args[0] {
	case "build":
		err = cmdBuild(args[1:], stdout, stderr)
	case "query":
		err = cmdQuery(args[1:], stdout, stderr)
	case "get":
		err = cmdGet(args[1:], stdout, stderr)
	case "add":
		err = cmdAdd(args[1:], stdout, stderr)
	case "stats":
		err = cmdStats(args[1:], stdout, stderr)
	case "export":
		err = cmdExport(args[1:], stdout, stderr)
	case "help", "-h", "--help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "ddccube: unknown command %q\n", args[0])
		usage(stderr)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "ddccube:", err)
		return 1
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage: ddccube <command> [flags]

commands:
  build  -dims N1,N2,... -csv FILE -o CUBE [-header] [-tile T] [-fanout F] [-autogrow]
         build a cube from CSV rows of d coordinates followed by a value
  query  -cube CUBE -range "l1,l2,...:h1,h2,..."
         print the range sum over the inclusive box
  get    -cube CUBE -point "p1,p2,..."
         print one cell's value
  add    -cube CUBE -point "p1,p2,..." -delta V [-o OUT]
         add V to a cell and write the cube back (default: in place)
  stats  -cube CUBE
         print dimensions, bounds, cell counts and storage
  export -cube CUBE [-o FILE] [-range "lo...:hi..."]
         dump nonzero cells as CSV (coordinates..., value); "-o -" or
         omitted writes to stdout; build/export round-trip
`)
}

// ParsePoint parses "a,b,c" into coordinates.
func ParsePoint(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad coordinate %q: %v", p, err)
		}
		out[i] = v
	}
	return out, nil
}

// ParseRange parses "a,b:c,d" into an inclusive box.
func ParseRange(s string) (lo, hi []int, err error) {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return nil, nil, fmt.Errorf("range %q must be \"lo:hi\"", s)
	}
	if lo, err = ParsePoint(parts[0]); err != nil {
		return nil, nil, err
	}
	if hi, err = ParsePoint(parts[1]); err != nil {
		return nil, nil, err
	}
	if len(lo) != len(hi) {
		return nil, nil, fmt.Errorf("range corners have %d and %d dimensions", len(lo), len(hi))
	}
	return lo, hi, nil
}

// LoadCSV reads rows of d coordinates followed by one value and adds
// each to the cube, returning the number of rows loaded.
func LoadCSV(r io.Reader, c *ddc.DynamicCube, hasHeader bool) (int, error) {
	d := len(c.Dims())
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = d + 1
	cr.TrimLeadingSpace = true
	n := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if hasHeader && n == 0 {
			hasHeader = false
			continue
		}
		p := make([]int, d)
		for i := 0; i < d; i++ {
			v, err := strconv.Atoi(strings.TrimSpace(rec[i]))
			if err != nil {
				return n, fmt.Errorf("row %d: bad coordinate %q", n+1, rec[i])
			}
			p[i] = v
		}
		v, err := strconv.ParseInt(strings.TrimSpace(rec[d]), 10, 64)
		if err != nil {
			return n, fmt.Errorf("row %d: bad value %q", n+1, rec[d])
		}
		if err := c.Add(p, v); err != nil {
			return n, fmt.Errorf("row %d: %v", n+1, err)
		}
		n++
	}
}

func loadCube(path string) (*ddc.DynamicCube, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ddc.LoadDynamic(f)
}

func saveCube(c *ddc.DynamicCube, path string) error {
	return saveCubeFormat(c, path, false)
}

func saveCubeFormat(c *ddc.DynamicCube, path string, compact bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if compact {
		err = c.SaveCompact(f)
	} else {
		err = c.Save(f)
	}
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func cmdBuild(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("build", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dimsFlag := fs.String("dims", "", "dimension sizes, e.g. 100,366")
	csvPath := fs.String("csv", "", "input CSV (coordinates..., value); \"-\" for stdin")
	out := fs.String("o", "", "output snapshot path")
	header := fs.Bool("header", false, "skip the first CSV row")
	tile := fs.Int("tile", 0, "leaf tile side, a power of two (0 = the default: 8 up to 4 dimensions, 4 above)")
	fanout := fs.Int("fanout", 0, "B_c tree fanout (0 = default)")
	autogrow := fs.Bool("autogrow", false, "grow the cube for out-of-range rows")
	compact := fs.Bool("compact", false, "write the varint (DDCSNAP2) snapshot format")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dimsFlag == "" || *csvPath == "" || *out == "" {
		return fmt.Errorf("build needs -dims, -csv and -o")
	}
	dims, err := ParsePoint(*dimsFlag)
	if err != nil {
		return fmt.Errorf("-dims: %v", err)
	}
	c, err := ddc.NewDynamicWithOptions(dims, ddc.Options{Tile: *tile, Fanout: *fanout, AutoGrow: *autogrow})
	if err != nil {
		return err
	}
	var in io.Reader
	if *csvPath == "-" {
		in = os.Stdin
	} else {
		f, err := os.Open(*csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	n, err := LoadCSV(in, c, *header)
	if err != nil {
		return err
	}
	if err := saveCubeFormat(c, *out, *compact); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "loaded %d rows into %v cube; total %d; wrote %s\n", n, dims, c.Total(), *out)
	return nil
}

func cmdQuery(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cubePath := fs.String("cube", "", "cube snapshot")
	rng := fs.String("range", "", "inclusive box \"lo...:hi...\"")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cubePath == "" || *rng == "" {
		return fmt.Errorf("query needs -cube and -range")
	}
	lo, hi, err := ParseRange(*rng)
	if err != nil {
		return err
	}
	c, err := loadCube(*cubePath)
	if err != nil {
		return err
	}
	sum, err := c.RangeSum(lo, hi)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%d\n", sum)
	return nil
}

func cmdGet(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("get", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cubePath := fs.String("cube", "", "cube snapshot")
	pt := fs.String("point", "", "cell coordinates \"p1,p2,...\"")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cubePath == "" || *pt == "" {
		return fmt.Errorf("get needs -cube and -point")
	}
	p, err := ParsePoint(*pt)
	if err != nil {
		return err
	}
	c, err := loadCube(*cubePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%d\n", c.Get(p))
	return nil
}

func cmdAdd(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("add", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cubePath := fs.String("cube", "", "cube snapshot")
	pt := fs.String("point", "", "cell coordinates")
	delta := fs.Int64("delta", 0, "value to add")
	out := fs.String("o", "", "output path (default: overwrite -cube)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cubePath == "" || *pt == "" {
		return fmt.Errorf("add needs -cube and -point")
	}
	p, err := ParsePoint(*pt)
	if err != nil {
		return err
	}
	c, err := loadCube(*cubePath)
	if err != nil {
		return err
	}
	if err := c.Add(p, *delta); err != nil {
		return err
	}
	dst := *out
	if dst == "" {
		dst = *cubePath
	}
	if err := saveCube(c, dst); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "cell %v now %d; wrote %s\n", p, c.Get(p), dst)
	return nil
}

func cmdExport(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("export", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cubePath := fs.String("cube", "", "cube snapshot")
	out := fs.String("o", "-", "output CSV path (\"-\" = stdout)")
	rng := fs.String("range", "", "optional inclusive box to export")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cubePath == "" {
		return fmt.Errorf("export needs -cube")
	}
	c, err := loadCube(*cubePath)
	if err != nil {
		return err
	}
	var w io.Writer = stdout
	if *out != "-" && *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	cw := csv.NewWriter(w)
	emit := func(p []int, v int64) {
		rec := make([]string, len(p)+1)
		for i, x := range p {
			rec[i] = strconv.Itoa(x)
		}
		rec[len(p)] = strconv.FormatInt(v, 10)
		_ = cw.Write(rec)
	}
	if *rng != "" {
		lo, hi, err := ParseRange(*rng)
		if err != nil {
			return err
		}
		if err := c.ForEachNonZeroInRange(lo, hi, emit); err != nil {
			return err
		}
	} else {
		c.ForEachNonZero(emit)
	}
	cw.Flush()
	return cw.Error()
}

func cmdStats(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cubePath := fs.String("cube", "", "cube snapshot")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cubePath == "" {
		return fmt.Errorf("stats needs -cube")
	}
	c, err := loadCube(*cubePath)
	if err != nil {
		return err
	}
	lo, hi := c.Bounds()
	opt := c.Options()
	fmt.Fprintf(stdout, "dims:         %v\n", c.Dims())
	fmt.Fprintf(stdout, "bounds:       [%v, %v)\n", lo, hi)
	fmt.Fprintf(stdout, "total:        %d\n", c.Total())
	fmt.Fprintf(stdout, "nonzero:      %d cells\n", c.NonZeroCells())
	fmt.Fprintf(stdout, "storage:      %d cells\n", c.StorageCells())
	fmt.Fprintf(stdout, "tile/fanout:  %d/%d autogrow=%v\n", opt.Tile, opt.Fanout, opt.AutoGrow)
	return nil
}
