package telemetry

import (
	"runtime/debug"
	"sync"
)

// BuildInfo describes the running binary, resolved once from the Go
// build-info block every module-built binary carries. Version is the
// module version ("(devel)" for a plain `go build`), Commit the VCS
// revision the build was stamped with (empty outside a checkout).
type BuildInfo struct {
	Version   string `json:"version"`
	Commit    string `json:"commit"`
	Modified  bool   `json:"modified"` // VCS working tree was dirty
	GoVersion string `json:"go_version"`
}

var (
	buildOnce sync.Once
	buildInfo BuildInfo
)

// ReadBuildInfo resolves the binary's build metadata (cached after the
// first call).
func ReadBuildInfo() BuildInfo {
	buildOnce.Do(func() {
		buildInfo = BuildInfo{Version: "unknown", GoVersion: "unknown"}
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		buildInfo.GoVersion = bi.GoVersion
		if bi.Main.Version != "" {
			buildInfo.Version = bi.Main.Version
		}
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				buildInfo.Commit = s.Value
			case "vcs.modified":
				buildInfo.Modified = s.Value == "true"
			}
		}
	})
	return buildInfo
}

// String renders the -version flag output, e.g.
//
//	flymond (devel) commit 1a2b3c4d (go1.24.1)
func (b BuildInfo) String() string {
	out := b.Version
	if b.Commit != "" {
		c := b.Commit
		if len(c) > 12 {
			c = c[:12]
		}
		out += " commit " + c
		if b.Modified {
			out += "+dirty"
		}
	}
	return out + " (" + b.GoVersion + ")"
}

// collect declares the build-info gauge every registry emits, one series
// with value 1:
//
//	flymon_build_info{version="(devel)",commit="...",goversion="go1.24"} 1
func (b BuildInfo) collect(c *catalogue) {
	c.gauge("flymon_build_info", "Build metadata of the running binary (value is always 1).",
		sample(1, "version", b.Version, "commit", b.Commit, "goversion", b.GoVersion))
}
