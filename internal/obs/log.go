package obs

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync/atomic"
)

// Structured logging for the long-running binaries (the multiply server
// first of all), zero-cost when disabled:
//
//   - The process logger defaults to slog.DiscardHandler, whose Enabled always
//     reports false, so an un-configured binary pays one atomic load plus a
//     nil-free Enabled call per would-be log site and never materializes
//     attributes.
//   - Instrumented code guards every log call with Logger().Enabled (or uses
//     LogAttrs with pre-built attrs), so building the attribute set is also
//     skipped when the level is off.
//   - The level is a slog.LevelVar switchable at runtime — /debug/loglevel
//     flips a live server to debug without a restart.

// logLevel is the runtime-adjustable level shared by every handler
// ConfigureLogger installs.
var logLevel slog.LevelVar

// logger is the process-wide structured logger. Its default handler is
// slog.DiscardHandler, whose Enabled is false at every level, so log sites in
// library code are inert until a binary opts in.
var logger atomic.Pointer[slog.Logger]

func init() {
	logger.Store(slog.New(slog.DiscardHandler))
}

// Logger returns the process-wide structured logger. The default (before
// ConfigureLogger) discards everything and reports Enabled false for every
// level, so callers can guard attribute construction with
// Logger().Enabled(ctx, level).
func Logger() *slog.Logger { return logger.Load() }

// SetLogger installs l as the process-wide logger; nil restores the
// disabled default.
func SetLogger(l *slog.Logger) {
	if l == nil {
		l = slog.New(slog.DiscardHandler)
	}
	logger.Store(l)
}

// ConfigureLogger installs a JSON-lines handler writing to w at the given
// initial level and returns the logger. The level stays runtime-adjustable
// via SetLogLevel and /debug/loglevel.
func ConfigureLogger(w io.Writer, level slog.Level) *slog.Logger {
	logLevel.Set(level)
	l := slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: &logLevel}))
	logger.Store(l)
	return l
}

// LogLevel returns the current runtime log level.
func LogLevel() slog.Level { return logLevel.Level() }

// SetLogLevel changes the runtime log level of every handler installed by
// ConfigureLogger.
func SetLogLevel(l slog.Level) { logLevel.Set(l) }

// ParseLogLevel resolves "debug", "info", "warn"/"warning" or "error"
// (case-insensitive).
func ParseLogLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", s)
}

// handleLogLevel is the /debug/loglevel endpoint: GET returns the current
// level, PUT/POST with a body (or ?level=) of debug|info|warn|error switches
// the live process. curl -X PUT -d debug :8080/debug/loglevel
func handleLogLevel(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		fmt.Fprintf(w, "%s\n", strings.ToLower(logLevel.Level().String()))
	case http.MethodPut, http.MethodPost:
		val := r.URL.Query().Get("level")
		if val == "" {
			b, err := io.ReadAll(io.LimitReader(r.Body, 64))
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			val = string(b)
		}
		lvl, err := ParseLogLevel(val)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		SetLogLevel(lvl)
		Logger().Info("log level changed", "level", strings.ToLower(lvl.String()))
		fmt.Fprintf(w, "%s\n", strings.ToLower(lvl.String()))
	default:
		http.Error(w, "GET, PUT or POST", http.StatusMethodNotAllowed)
	}
}
