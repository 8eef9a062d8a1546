#!/usr/bin/env bash
# lint.sh — run the repository's full static-analysis stack.
#
#   ./scripts/lint.sh                 best effort: run whatever tools exist,
#                                     install missing ones only if the module
#                                     proxy is reachable, skip otherwise
#   ./scripts/lint.sh --require-tools fail if a tool can neither be found nor
#                                     installed (CI mode)
#
# mtlint and go vet always run — they need nothing but the Go toolchain.
# staticcheck, golangci-lint, and govulncheck are external: installs go
# through `go install` into GOBIN (cacheable in CI), pinned versions so
# cache keys stay meaningful.
set -euo pipefail
cd "$(dirname "$0")/.."

REQUIRE_TOOLS=0
[[ "${1:-}" == "--require-tools" ]] && REQUIRE_TOOLS=1

GOBIN="${GOBIN:-$(go env GOPATH)/bin}"
export PATH="$GOBIN:$PATH"

STATICCHECK_VERSION=2023.1.7   # last line supporting go1.22
GOLANGCI_VERSION=v1.59.1
GOVULNCHECK_VERSION=v1.1.3

fail=0

# ensure_tool <binary> <install-path@version>
ensure_tool() {
  local bin=$1 mod=$2
  if command -v "$bin" >/dev/null 2>&1; then
    return 0
  fi
  echo "lint.sh: $bin not found; attempting go install $mod" >&2
  if GOBIN="$GOBIN" go install "$mod" 2>/dev/null && command -v "$bin" >/dev/null 2>&1; then
    return 0
  fi
  if [[ $REQUIRE_TOOLS == 1 ]]; then
    echo "lint.sh: FATAL: $bin unavailable and install failed" >&2
    exit 1
  fi
  echo "lint.sh: skipping $bin (offline or install failed)" >&2
  return 1
}

echo "==> go vet"
go vet ./...

echo "==> mtlint"
go run ./cmd/mtlint ./...

if ensure_tool staticcheck "honnef.co/go/tools/cmd/staticcheck@$STATICCHECK_VERSION"; then
  echo "==> staticcheck"
  staticcheck ./... || fail=1
fi

if ensure_tool golangci-lint "github.com/golangci/golangci-lint/cmd/golangci-lint@$GOLANGCI_VERSION"; then
  echo "==> golangci-lint"
  golangci-lint run || fail=1
fi

if ensure_tool govulncheck "golang.org/x/vuln/cmd/govulncheck@$GOVULNCHECK_VERSION"; then
  echo "==> govulncheck"
  govulncheck ./... || fail=1
fi

exit $fail
