package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// fingerprint records the machine and source a result was measured on,
// so a number can always be traced back to its hardware and commit.
type fingerprint struct {
	CPUModel   string            `json:"cpu_model"`
	NumCPU     int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	MemTotalMB int64             `json:"mem_total_mb"`
	Caches     map[string]string `json:"caches"`
	GoVersion  string            `json:"go_version"`
	OS         string            `json:"os"`
	Commit     string            `json:"commit"`
	Dirty      bool              `json:"dirty"`
	// SourceDigest hashes every .go file and go.mod of the program, so
	// results from a checkout that is not a git repository can still
	// be matched to the code that produced them.
	SourceDigest string `json:"source_digest"`
}

func takeFingerprint(root string) fingerprint {
	fp := fingerprint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
		Caches:     cacheSizes(),
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/meminfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "MemTotal:" {
				kb, _ := strconv.ParseInt(f[1], 10, 64)
				fp.MemTotalMB = kb / 1024
			}
		}
	}
	if out, err := gitOutput(root, "rev-parse", "HEAD"); err == nil {
		fp.Commit = out
		if st, err := gitOutput(root, "status", "--porcelain", "--untracked-files=no"); err == nil {
			fp.Dirty = st != ""
		}
	}
	fp.SourceDigest = sourceDigest(root)
	return fp
}

func gitOutput(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	return strings.TrimSpace(string(out)), err
}

// cacheSizes reads the cache hierarchy of CPU 0 ("L1d", "L2", "L3" →
// size as the kernel reports it).
func cacheSizes() map[string]string {
	out := make(map[string]string)
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		read := func(f string) string {
			b, _ := os.ReadFile(filepath.Join(d, f))
			return strings.TrimSpace(string(b))
		}
		level, typ, size := read("level"), read("type"), read("size")
		if level == "" || size == "" || typ == "Instruction" {
			continue
		}
		name := "L" + level
		if typ == "Data" {
			name += "d"
		}
		out[name] = size
	}
	return out
}

// sourceDigest is a SHA-256 over the paths and contents of the
// program's .go files and go.mod files, in path order. Build output
// directories (dot-prefixed) are skipped.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		if f, err := os.Open(p); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
