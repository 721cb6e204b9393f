package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
)

// fingerprint identifies the machine a run measured, so a figure from
// a slower disk or a smaller box is recognizable next to the others.
type fingerprint struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	StoreDir   string `json:"storeDir"`
	StoreFS    string `json:"storeFS"`
	RepoFS     string `json:"repoFS"`
	// StoreOnRepoDisk reports whether the store directory is on the
	// checkout's own device. The store lives under the checkout, so it
	// normally is, and the one fsync probe then covers both.
	StoreOnRepoDisk bool `json:"storeOnRepoDisk"`
	// Fsync probe: median and worst latency of fsyncing a small append
	// in the store directory.
	StoreFsyncP50US float64 `json:"storeFsyncP50us"`
	StoreFsyncMaxUS float64 `json:"storeFsyncMaxus"`
}

// fsMagic names the filesystems a run is likely to meet.
var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
}

// fsType returns the filesystem type of dir by statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// fsyncProbe appends 512 bytes and fsyncs, n times, in a scratch file
// under dir, and returns the median and worst fsync latency.
func fsyncProbe(dir string, n int) (p50, worst time.Duration, err error) {
	f, err := os.CreateTemp(dir, "fsync-probe-*")
	if err != nil {
		return 0, 0, fmt.Errorf("fsync probe: %w", err)
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 512)
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if _, err := f.Write(buf); err != nil {
			return 0, 0, fmt.Errorf("fsync probe: %w", err)
		}
		t := time.Now()
		if err := f.Sync(); err != nil {
			return 0, 0, fmt.Errorf("fsync probe: %w", err)
		}
		d := time.Since(t)
		lat = append(lat, float64(d))
		worst = max(worst, d)
	}
	return time.Duration(median(lat)), worst, nil
}

// device returns the device number of the filesystem holding path.
func device(path string) (uint64, error) {
	var st syscall.Stat_t
	if err := syscall.Stat(path, &st); err != nil {
		return 0, err
	}
	return st.Dev, nil
}

// takeFingerprint stamps the machine. storeDir is where the workload
// logs live, under repoDir, the checkout root; the probe writes only
// in storeDir.
func takeFingerprint(storeDir, repoDir string) (fingerprint, error) {
	fp := fingerprint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		StoreDir:   storeDir,
		StoreFS:    fsType(storeDir),
		RepoFS:     fsType(repoDir),
	}
	sd, err := device(storeDir)
	if err != nil {
		return fp, err
	}
	rd, err := device(repoDir)
	if err != nil {
		return fp, err
	}
	fp.StoreOnRepoDisk = sd == rd
	p50, worst, err := fsyncProbe(storeDir, 50)
	if err != nil {
		return fp, err
	}
	fp.StoreFsyncP50US, fp.StoreFsyncMaxUS = us(p50), us(worst)
	return fp, nil
}
