package telemetry

import (
	"strings"
	"testing"
)

func TestLoggerLevelsAndTags(t *testing.T) {
	var b strings.Builder
	l := NewLogger("rpc", LevelInfo, &b)
	l.Debugf("hidden %d", 1)
	l.Infof("visible %d", 2)
	l.Warnf("warned")
	out := b.String()
	if strings.Contains(out, "hidden") {
		t.Fatalf("debug leaked at info level:\n%s", out)
	}
	if !strings.Contains(out, "INFO  [rpc] visible 2") {
		t.Fatalf("info line malformed:\n%s", out)
	}
	if !strings.Contains(out, "WARN  [rpc] warned") {
		t.Fatalf("warn line malformed:\n%s", out)
	}

	l.SetLevel(LevelError)
	l.Warnf("quiet now")
	if strings.Contains(b.String(), "quiet now") {
		t.Fatalf("SetLevel did not raise the threshold")
	}
}

func TestNilLoggerIsSilent(t *testing.T) {
	var l *Logger
	l.Debugf("a")
	l.Infof("b")
	l.Warnf("c")
	l.Errorf("d")
	if l.Enabled(LevelError) {
		t.Fatal("nil logger claims enabled")
	}
	if l.With("sub") != nil {
		t.Fatal("nil With minted a logger")
	}
}

func TestFuncLoggerAdaptsLegacySink(t *testing.T) {
	var got []string
	l := NewFuncLogger("rpc", LevelDebug, func(format string, args ...any) {
		var b strings.Builder
		b.WriteString(format)
		got = append(got, strings.TrimSpace(b.String()))
	})
	l.Debugf("x")
	if len(got) != 1 {
		t.Fatalf("sink calls = %d", len(got))
	}
	if NewFuncLogger("rpc", LevelInfo, nil) != nil {
		t.Fatal("nil sink should yield nil logger")
	}
}

func TestWithSharesLevel(t *testing.T) {
	var b strings.Builder
	l := NewLogger("flymond", LevelWarn, &b)
	sub := l.With("liveness")
	sub.Infof("hidden")
	sub.Errorf("shown")
	out := b.String()
	if strings.Contains(out, "hidden") || !strings.Contains(out, "[liveness] shown") {
		t.Fatalf("sub-logger level/tag wrong:\n%s", out)
	}
}

func TestParseLogLevel(t *testing.T) {
	cases := map[string]LogLevel{
		"debug": LevelDebug, "info": LevelInfo, "": LevelInfo,
		"warn": LevelWarn, "warning": LevelWarn, "ERROR": LevelError, "off": LevelOff,
	}
	for in, want := range cases {
		got, err := ParseLogLevel(in)
		if err != nil || got != want {
			t.Fatalf("ParseLogLevel(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseLogLevel("loud"); err == nil {
		t.Fatal("bad level accepted")
	}
}

func TestBuildInfo(t *testing.T) {
	b := ReadBuildInfo()
	if b.GoVersion == "" {
		t.Fatal("empty go version")
	}
	if !strings.Contains(b.String(), b.GoVersion) {
		t.Fatalf("String() missing go version: %s", b.String())
	}
	var c catalogue
	b.collect(&c)
	var out strings.Builder
	if err := WriteText(&out, c); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "flymon_build_info{version=") ||
		!strings.HasSuffix(strings.TrimSpace(out.String()), "} 1") {
		t.Fatalf("build info metric malformed:\n%s", out.String())
	}
}
