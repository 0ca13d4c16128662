package telemetry

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// registration matches a metric family registered under a literal name.
var registration = regexp.MustCompile(`\.(?:Counter|Gauge|Histogram|Func)\(\s*"([^"]+)"`)

// registeredNames returns the literal family names the module's non-test
// Go sources register, each with the file that registers it.
func registeredNames(t *testing.T, root string) map[string]string {
	t.Helper()
	names := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range registration.FindAllSubmatch(src, -1) {
			names[string(m[1])] = path
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

var (
	// documentedName is a family name in backticks; a backticked
	// `_suffix` right after one (`a_b_c_total` / `_d_total`) is shorthand
	// for the same package prefix, its first two words.
	documentedName = regexp.MustCompile("`((?:activeiter|fleet)_[a-z0-9_]+|_[a-z0-9_]+)`")
	packagePrefix  = regexp.MustCompile(`^[a-z0-9]+_[a-z0-9]+_`)
)

// documentedNames returns the activeiter_* and fleet_* family names
// docs/OBSERVABILITY.md mentions, shorthand expanded.
func documentedNames(doc string) map[string]bool {
	names := map[string]bool{}
	for _, line := range strings.Split(doc, "\n") {
		prefix := ""
		for _, m := range documentedName.FindAllStringSubmatch(line, -1) {
			name := m[1]
			if strings.HasPrefix(name, "_") {
				if prefix == "" {
					continue
				}
				name = prefix + name[1:]
			} else {
				prefix = packagePrefix.FindString(name)
			}
			names[name] = true
		}
	}
	return names
}

// TestMetricNamesDocumented keeps the code and docs/OBSERVABILITY.md
// from drifting apart: every family a non-test source registers under a
// literal name is documented, and every activeiter_* or fleet_* family
// the document names is registered somewhere.
func TestMetricNamesDocumented(t *testing.T) {
	root := filepath.Join("..", "..")
	doc, err := os.ReadFile(filepath.Join(root, "docs", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	registered, documented := registeredNames(t, root), documentedNames(string(doc))
	if len(registered) == 0 || len(documented) == 0 {
		t.Fatalf("found %d registered and %d documented names; the scan is broken", len(registered), len(documented))
	}
	var undocumented, unregistered []string
	for name, path := range registered {
		if !documented[name] {
			undocumented = append(undocumented, name+" ("+path+")")
		}
	}
	for name := range documented {
		if _, ok := registered[name]; !ok {
			unregistered = append(unregistered, name)
		}
	}
	sort.Strings(undocumented)
	sort.Strings(unregistered)
	for _, name := range undocumented {
		t.Errorf("metric %s is registered but not named in docs/OBSERVABILITY.md", name)
	}
	for _, name := range unregistered {
		t.Errorf("docs/OBSERVABILITY.md names metric %s, which nothing registers", name)
	}
}
