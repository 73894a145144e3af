#!/usr/bin/env bash
# docs_check.sh <repo_root> <experiment_cli_binary> [build_dir]
#               [rfed_server_binary] [rfed_worker_binary]
#
# Ten stale-documentation tripwires, run as `ctest -L docs`:
#   1. Every relative markdown link in README.md and docs/*.md must
#      resolve to an existing file or directory.
#   2. Every `--flag` token mentioned in docs/*.md other than
#      docs/DEPLOYMENT.md (tripwire 4 checks that page) must appear in
#      `experiment_cli --help` (modulo a short whitelist of
#      cmake/ctest/bench flags the docs quote).
#   3. Every `ctest -L <label>` invocation quoted in README.md or
#      docs/*.md must name a label registered in the build's test
#      registry (`ctest --print-labels`), so docs cannot advertise a
#      label that silently matches zero tests.
#   4. When the serve binaries are passed, every `--flag` token in
#      docs/DEPLOYMENT.md must appear in `rfed_server --help` or
#      `rfed_worker --help`.
#   5. Every `BENCH_*.json` filename mentioned in README.md, docs/*.md
#      or EXPERIMENTS.md must exist at the repo root (benches commit
#      their JSON; docs must not advertise files nothing generates).
#   6. Every `kernel.*`, `autograd.*` or `serve.*` metric name mentioned
#      in README.md or docs/*.md must appear as a string literal
#      somewhere under src/, so the metrics tables cannot document
#      counters nothing records.
#   7. Every page under docs/ must be reachable: its filename must be
#      mentioned by README.md or by another docs page, so a new doc
#      cannot be merged as an orphan nobody can discover.
#   8. Every gtest name `Suite.Test` quoted in README.md or docs/*.md
#      (Suite a suite defined under tests/, or any name ending in
#      `Test`) must be defined by a TEST, TEST_F or TEST_P in tests/,
#      so the docs cannot cite a test that was renamed or never existed.
#   9. Every backticked CamelCase identifier in README.md or docs/*.md
#      (a span that is one identifier starting with a capital letter,
#      such as `ConvBlockBackwardT`) must occur as a whole word in some
#      file under src/, tests/, bench/, examples/ or roundbench/, so the
#      docs cannot cite code that a deletion or a rename removed.
#  10. When the serve binaries are passed, every `--flag` token in
#      README.md must appear in the `--help` output of experiment_cli,
#      rfed_server or rfed_worker (modulo tripwire 2's whitelist), so the
#      front page cannot advertise a flag that a deletion removed.
set -u

root="${1:?usage: docs_check.sh <repo_root> <experiment_cli>}"
cli="${2:?usage: docs_check.sh <repo_root> <experiment_cli>}"
build="${3:-}"
server_bin="${4:-}"
worker_bin="${5:-}"
failures=0

fail() {
  echo "docs_check: $*" >&2
  failures=$((failures + 1))
}

# ---- 1. Dead relative links ----
for doc in "$root"/README.md "$root"/docs/*.md; do
  [ -f "$doc" ] || continue
  dir=$(dirname "$doc")
  # Markdown inline links: capture the (target) part of [text](target).
  grep -oE '\]\([^)]+\)' "$doc" | sed -E 's/^\]\(//; s/\)$//' |
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|'#'*) continue ;;
    esac
    path="${target%%#*}"        # strip fragment
    path="${path%% *}"          # strip optional link title
    [ -n "$path" ] || continue
    if [ ! -e "$dir/$path" ] && [ ! -e "$root/$path" ]; then
      echo "DEADLINK $doc -> $target"
    fi
  done
done > /tmp/docs_check_links.$$ 2>&1
if [ -s /tmp/docs_check_links.$$ ]; then
  cat /tmp/docs_check_links.$$ >&2
  fail "dead relative links found"
fi
rm -f /tmp/docs_check_links.$$

# ---- 2. Stale flag names ----
help_out=$("$cli" --help 2>&1) || fail "experiment_cli --help exited nonzero"
# Flags the docs legitimately mention that belong to other tools.
whitelist="--help --build --output-on-failure --label-regex --test-dir --smoke --min_ms --out --only"

for doc in "$root"/docs/*.md; do
  [ "$(basename "$doc")" = DEPLOYMENT.md ] && continue
  [ -f "$doc" ] || continue
  for flag in $(grep -oE '\-\-[a-z][a-z0-9_-]*' "$doc" | sort -u); do
    case " $whitelist " in *" $flag "*) continue ;; esac
    if ! printf '%s\n' "$help_out" | grep -q -- "$flag"; then
      fail "$doc mentions $flag, absent from experiment_cli --help"
    fi
  done
done

# ---- 3. Stale ctest labels ----
if [ -n "$build" ]; then
  labels=$(ctest --test-dir "$build" --print-labels 2>/dev/null |
           sed -n 's/^  *//p')
  if [ -z "$labels" ]; then
    fail "ctest --print-labels returned no labels for $build"
  fi
  for doc in "$root"/README.md "$root"/docs/*.md; do
    [ -f "$doc" ] || continue
    for label in $(grep -oE 'ctest [^`)]*-L +[A-Za-z0-9_-]+' "$doc" |
                   sed -E 's/.*-L +//' | sort -u); do
      if ! printf '%s\n' "$labels" | grep -qx "$label"; then
        fail "$doc mentions 'ctest -L $label', not a registered test label"
      fi
    done
  done
fi

# ---- 4. Stale deployment flags ----
if [ -n "$server_bin" ] && [ -n "$worker_bin" ]; then
  serve_help=$("$server_bin" --help 2>&1) ||
    fail "rfed_server --help exited nonzero"
  serve_help="$serve_help
$("$worker_bin" --help 2>&1)" || fail "rfed_worker --help exited nonzero"
  doc="$root/docs/DEPLOYMENT.md"
  if [ ! -f "$doc" ]; then
    fail "missing $doc"
  else
    for flag in $(grep -oE '\-\-[a-z][a-z0-9_-]*' "$doc" | sort -u); do
      case " $whitelist " in *" $flag "*) continue ;; esac
      if ! printf '%s\n' "$serve_help" | grep -q -- "$flag"; then
        fail "$doc mentions $flag, absent from rfed_server/rfed_worker --help"
      fi
    done
  fi
fi

# ---- 5. Bench JSON files the docs advertise ----
for doc in "$root"/README.md "$root"/EXPERIMENTS.md "$root"/docs/*.md; do
  [ -f "$doc" ] || continue
  for json in $(grep -oE 'BENCH_[A-Za-z0-9_]+\.json' "$doc" | sort -u); do
    if [ ! -f "$root/$json" ]; then
      fail "$doc mentions $json, absent from the repo root"
    fi
  done
done

# ---- 6. kernel.* / autograd.* / serve.* metric names the docs document ----
for doc in "$root"/README.md "$root"/docs/*.md; do
  [ -f "$doc" ] || continue
  # Require a non-identifier prefix so BENCH_autograd.json and
  # FlConfig::autograd.checkpoint do not read as metric names.
  for metric in $(grep -oE '(^|[^A-Za-z0-9_:])(kernel|autograd|serve)\.[a-z_]+(\.[a-z_]+)*' "$doc" |
                  sed -E 's/^[^kas]//' | sort -u); do
    if ! grep -rqF "\"$metric\"" "$root/src"; then
      fail "$doc documents metric $metric, never recorded under src/"
    fi
  done
done

# ---- 7. Orphaned docs pages ----
for doc in "$root"/docs/*.md; do
  [ -f "$doc" ] || continue
  base=$(basename "$doc")
  linked=0
  for other in "$root"/README.md "$root"/docs/*.md; do
    [ -f "$other" ] || continue
    [ "$other" = "$doc" ] && continue
    if grep -qF "$base" "$other"; then
      linked=1
      break
    fi
  done
  if [ "$linked" -eq 0 ]; then
    fail "docs/$base is linked from neither README.md nor any other doc"
  fi
done

# ---- 8. gtest names the docs cite ----
# Every Suite.Name a TEST/TEST_F/TEST_P macro defines; a macro may wrap
# its arguments onto the next line.
defined=$(cat "$root"/tests/*.cc | tr '\n' ' ' |
          grep -oE '\bTEST(_F|_P)? *\( *[A-Za-z0-9_]+ *, *[A-Za-z0-9_]+ *\)' |
          sed -E 's/^[^(]*\( *//; s/ *\)$//; s/ *, */./' | sort -u)
suites=$(printf '%s\n' "$defined" | sed 's/\..*//' | sort -u)
for doc in "$root"/README.md "$root"/docs/*.md; do
  [ -f "$doc" ] || continue
  for name in $(grep -oE '(^|[^A-Za-z0-9_.:])[A-Z][A-Za-z0-9_]*\.[A-Z][A-Za-z0-9_]*' "$doc" |
                sed -E 's/^[^A-Z]//' | sort -u); do
    suite="${name%%.*}"
    case "$suite" in
      *Test) ;;
      *) printf '%s\n' "$suites" | grep -qx "$suite" || continue ;;
    esac
    if ! printf '%s\n' "$defined" | grep -qxF "$name"; then
      fail "$doc cites test $name, defined by no TEST/TEST_F/TEST_P in tests/"
    fi
  done
done

# ---- 9. Code identifiers the docs cite ----
# Prose that happens to be one capitalized word in backticks.
allowed_words="Date"
code_dirs="src tests bench examples roundbench"
code_words=$(for dir in $code_dirs; do
               [ -d "$root/$dir" ] || continue
               grep -rhoIE '[A-Za-z_][A-Za-z0-9_]*' "$root/$dir"
             done | sort -u)
for doc in "$root"/README.md "$root"/docs/*.md; do
  [ -f "$doc" ] || continue
  for id in $(grep -oE '`[A-Z][A-Za-z0-9_]*`' "$doc" | tr -d '`' | sort -u); do
    case " $allowed_words " in *" $id "*) continue ;; esac
    if ! printf '%s\n' "$code_words" | grep -qxF "$id"; then
      fail "$doc cites \`$id\`, which no file under $code_dirs contains"
    fi
  done
done

# ---- 10. README flags ----
if [ -n "$server_bin" ] && [ -n "$worker_bin" ]; then
  all_help="$help_out
$serve_help"
  for flag in $(grep -oE '\-\-[a-z][a-z0-9_-]*' "$root/README.md" | sort -u); do
    case " $whitelist " in *" $flag "*) continue ;; esac
    if ! printf '%s\n' "$all_help" | grep -q -- "$flag"; then
      fail "README.md mentions $flag, absent from every binary's --help"
    fi
  done
fi

if [ "$failures" -gt 0 ]; then
  echo "docs_check: FAILED ($failures problem(s))" >&2
  exit 1
fi
echo "docs_check: OK"
