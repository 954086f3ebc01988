#!/bin/sh
# reach.sh lists every non-test function that no test outside its own
# package reaches, and fails if one of them is missing from the reviewed
# allowlist analysis/reach.txt. Run it from the module root (`make reach`).
#
# Each test package runs once, without -short (so "reached" means what
# `go test ./...` reaches), under -coverpkg over every package except the
# static-analysis tooling (internal/analysis/..., cmd/hepcclvet). A function
# counts as reached from outside when another package's tests execute at
# least one of its statements; the commands count through their in-process
# tests. bench/ is a module of its own and is not run: what only bench/
# calls belongs in the allowlist with that reason, and the reason is checked
# against bench/'s Go files (see the end of this script).
#
# Only exported names are listed, outside the commands' own main packages:
# an unexported function is reached through its package's exported ones,
# and one with no caller at all is staticcheck's (U1000) to report.
#
# Output: one line per function, "<file>: <func>" with the file relative to
# the module root and no line number; methods print without their receiver.
set -eu

GO=${GO:-go}
allow=analysis/reach.txt
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

mod=$($GO list -m)
pkgs=$($GO list ./... | grep -v -e '/internal/analysis' -e '/cmd/hepcclvet$')
coverpkg=$(echo $pkgs | tr ' ' ',')
mains=$($GO list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' $pkgs | tr '\n' ' ')

n=0
for p in $pkgs; do
	n=$((n + 1))
	if ! $GO test -count=1 -coverpkg="$coverpkg" -coverprofile="$work/$n.cov" "$p" >"$work/$n.log" 2>&1; then
		cat "$work/$n.log" >&2
		echo "reach: tests of $p failed" >&2
		exit 1
	fi
	[ -s "$work/$n.cov" ] || continue
	# "<module>/<dir>/<file>:<line>:  <func>  <pct>%" -> "<pkg> <file>:<line> <func> <pct>"
	$GO tool cover -func="$work/$n.cov" |
		awk -v p="$p" '$1 != "total:" { sub(/%$/, "", $3); print p, $1, $2, $3 }' >>"$work/funcs"
done

# A function is reached from outside when some record has a test package
# other than the function's own directory and a nonzero percentage.
awk -v mod="$mod" -v mains="$mains" '
BEGIN { n = split(mains, m, " "); for (i = 1; i <= n; i++) main[m[i]] = 1 }
$3 ~ /^[A-Z]/ {
	file = $2; sub(/:[0-9]+:$/, "", file)
	dir = file; sub(/\/[^\/]*$/, "", dir)
	if (dir in main) next
	key = $2 " " $3
	seen[key] = 1
	if ($1 != dir && $4 + 0 > 0) outside[key] = 1
}
END {
	for (key in seen) {
		if (key in outside) continue
		split(key, f, " ")
		file = f[1]; sub(/:[0-9]+:$/, "", file); sub("^" mod "/", "", file)
		print file ": " f[2]
	}
}' "$work/funcs" | sort -u >"$work/found"

# Allowlist lines are "<file>: <func>  # <reason>"; blank lines and lines
# starting with # are comments.
sed -n 's/[[:space:]]*#.*$//; /^$/d; p' "$allow" | sort -u >"$work/allowed"

cat "$work/found"
stale=$(comm -13 "$work/found" "$work/allowed")
if [ -n "$stale" ]; then
	echo "reach: reached from outside now; drop from $allow:" >&2
	echo "$stale" | sed 's/^/  /' >&2
fi
status=0
missing=$(comm -23 "$work/found" "$work/allowed")
if [ -n "$missing" ]; then
	echo "reach: only their own package reaches these; delete them or add them to $allow with a reason:" >&2
	echo "$missing" | sed 's/^/  /' >&2
	status=1
fi

# A reason that cites bench/ must still hold there: "bench/ calls it:
# `<call>` in <file>" needs <file> to contain the text <call>, "bench/
# imports internal/tileccl" needs a bench/ Go file that imports the package.
# Otherwise the line is stale and fails, rather than outliving the bench/
# code it cites.
benchstale=$(sed -n 's/^\([^#]*[^#[:space:]]\)[[:space:]]*#[[:space:]]*\(bench\/.*\)$/\1|\2/p' "$allow" |
	while IFS='|' read -r entry reason; do
		case $reason in
		'bench/ calls it: `'*'` in '*)
			call=${reason#*\`}
			call=${call%%\`*}
			file=${reason#*\` in }
			file=${file%%[;[:space:]]*}
			grep -qF -- "$call" "$file" 2>/dev/null || echo "$entry" ;;
		"bench/ imports internal/tileccl"*)
			grep -rqF --include='*.go' "\"$mod/internal/tileccl\"" bench/ || echo "$entry" ;;
		*)
			echo "$entry" ;;
		esac
	done)
if [ -n "$benchstale" ]; then
	echo "reach: bench/ reason that bench/ does not bear out (cited call or import missing, or unknown form); drop from $allow or give the line its real reason:" >&2
	echo "$benchstale" | sed 's/^/  /' >&2
	status=1
fi
exit $status
