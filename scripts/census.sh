#!/usr/bin/env bash
# Reach census (ROADMAP item 6c): what reaches each public item of the
# workspace's non-test code. rustc's `dead_code` lint is silent on a `pub`
# item nothing calls, so a second implementation, a wrapper or a dial kept
# alive only by its own unit test goes unnoticed; this script notices it.
#
# Items: every `pub fn` (`const`, `async`, `unsafe` included), every `pub`
# field of a `pub struct` and every variant of a `pub enum` in non-test
# `crates/*/src` code. Test code is a `#[cfg(test)]` item (a module, a fn,
# a statement) and every file a `#[cfg(test)] mod x;` pulls in.
#
# Reach: word-boundary references to the item's name outside comments and
# its definition line, counted per class:
#   prod    non-test code in crates/*/src (crates/bench aside) and src/
#   own     unit tests of the item's own crate
#   other   unit tests of other crates
#   integ   integration tests (tests/, crates/*/tests/)
#   figs    figures (crates/bench: benches and their support library)
#   ex      examples (examples/, crates/*/examples/)
#   bench   the repo benchmark (benchmark/src, benchmark/tests)
#
# Names are matched bare, not resolved: a reference to any other item of
# the same name (every `new`, every `len`) counts too. The census can only
# over-count, so the gate below can miss an item but never fails one that
# something outside its own unit tests reaches.
#
# Usage:
#   scripts/census.sh           gate: fail on any item reached by nothing
#                               or only by its own crate's unit tests,
#                               unless scripts/census.allow names it (one
#                               name and a one-line reason a line); also
#                               fail on an allowlist entry that no longer
#                               names such an item
#   scripts/census.sh --table   print every item with its reach counts
set -euo pipefail
cd "$(dirname "$0")/.."

mode=gate
case "${1:-}" in
    '') ;;
    --table) mode=table ;;
    *) echo "usage: $0 [--table]" >&2; exit 2 ;;
esac

allow=scripts/census.allow
[ -f "$allow" ] || { echo "missing $allow" >&2; exit 2; }

srcs=$(find crates/*/src -name '*.rs' | sort)
# Files that are test code whole: the targets of `#[cfg(test)] mod x;`.
testfiles=$(awk '
    FNR == 1 { pend = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { pend = 1 }
    pend && match($0, /mod[[:space:]]+[A-Za-z_][A-Za-z0-9_]*[[:space:]]*;/) {
        name = substr($0, RSTART + 3, RLENGTH - 4)
        gsub(/[[:space:]]/, "", name)
        dir = FILENAME; sub(/\/[^\/]*$/, "", dir)
        base = FILENAME; sub(/^.*\//, "", base); sub(/\.rs$/, "", base)
        if (base != "lib" && base != "main" && base != "mod") dir = dir "/" base
        print dir "/" name ".rs"; print dir "/" name "/mod.rs"
    }
    pend && !/^[[:space:]]*(#|\/\/|$)/ && !/cfg\(test\)/ { pend = 0 }
' $srcs | while read -r f; do [ -f "$f" ] && echo "$f"; done || true)
others=$(find src tests crates/*/tests crates/bench/benches examples crates/*/examples \
    benchmark/src benchmark/tests -name '*.rs' 2>/dev/null | sort)

awk -v mode="$mode" -v allowfile="$allow" -v testfiles="$(echo $testfiles)" -v q="'" '
function sanitize(l) {
    # The rest of a string literal opened on an earlier line.
    if (instr) {
        if (match(l, /^([^"\\]|\\.)*"/)) { l = substr(l, RLENGTH + 1); instr = 0 }
        else return ""
    }
    gsub(/r#"([^"]|"[^#])*"#/, " ", l)
    gsub(charre, " ", l)
    gsub(/"([^"\\]|\\.)*"/, " ", l)
    sub(/\/\/.*/, "", l)
    # A string literal left open runs on to the next line.
    if (index(l, "\"")) { l = substr(l, 1, index(l, "\"") - 1); instr = 1 }
    return l
}
function class(f) {
    if (f ~ /^crates\/bench\//) return "figs"
    if (f ~ /^crates\/[^\/]+\/src\//) return "unit"
    if (f ~ /^src\//) return "prod"
    if (f ~ /^(tests|crates\/[^\/]+\/tests)\//) return "integ"
    if (f ~ /^(examples|crates\/[^\/]+\/examples)\//) return "ex"
    return "bench"
}
function additem(kind, name) {
    n++
    iname[n] = name; icrate[n] = crate; iwhere[n] = FILENAME ":" FNR; ikind[n] = kind
    defname = name
}
BEGIN {
    charre = q "(\\\\.|[^\\\\" q "])" q
    ntf = split(testfiles, tf, " ")
    for (i = 1; i <= ntf; i++) testfile[tf[i]] = 1
    while ((getline line < allowfile) > 0) {
        if (line ~ /^[[:space:]]*(#|$)/) continue
        split(line, w, /[[:space:]]+/)
        reason = line; sub(/^[[:space:]]*[^[:space:]]+[[:space:]]*/, "", reason)
        if (reason == "") { print allowfile ": no reason given for " w[1] > "/dev/stderr"; bad = 1 }
        allowed[w[1]] = 1; nallow++; allowname[nallow] = w[1]
    }
}
FNR == 1 {
    depth = 0; instr = 0; pend = 0; intest = 0; sdecl = 0; edecl = 0; sopen = 0; eopen = 0
    cls = class(FILENAME)
    insrc = FILENAME ~ /^crates\/[^\/]+\/src\//
    crate = ""
    if (FILENAME ~ /^crates\//) { crate = FILENAME; sub(/^crates\//, "", crate); sub(/\/.*/, "", crate) }
    tfile = (FILENAME in testfile)
}
{
    l = sanitize($0)
    if (insrc && !tfile && !intest && !pend && l ~ /^[[:space:]]*#\[cfg\(test\)\]/) {
        pend = 1; pdepth = depth
    }
    t = tfile || intest || pend
    o = gsub(/\{/, "{", l); c = gsub(/\}/, "}", l)
    defname = ""
    if (insrc && !t) {
        if (match(l, /^[[:space:]]*pub[[:space:]]+((const|async|unsafe)[[:space:]]+)*fn[[:space:]]+[A-Za-z_][A-Za-z0-9_]*/)) {
            s = substr(l, RSTART, RLENGTH); sub(/^.*fn[[:space:]]+/, "", s)
            additem("fn", s)
        } else if (sopen && depth == sdepth + 1 && match(l, /^[[:space:]]*pub[[:space:]]+[a-z_][A-Za-z0-9_]*[[:space:]]*:/)) {
            s = substr(l, RSTART, RLENGTH); sub(/^[[:space:]]*pub[[:space:]]+/, "", s); sub(/[[:space:]]*:$/, "", s)
            additem("field", s)
        } else if (eopen && depth == edepth + 1 && match(l, /^[[:space:]]*[A-Z][A-Za-z0-9_]*[[:space:]]*([,({=]|$)/)) {
            s = substr(l, RSTART, RLENGTH); sub(/^[[:space:]]*/, "", s); sub(/[[:space:]]*[,({=]?$/, "", s)
            additem("variant", s)
        }
        if (l ~ /^[[:space:]]*pub[[:space:]]+struct[[:space:]]+[A-Za-z_]/) { sdecl = 1; sdepth = depth }
        if (l ~ /^[[:space:]]*pub[[:space:]]+enum[[:space:]]+[A-Za-z_]/) { edecl = 1; edepth = depth }
    }
    # A declaration opens at its first brace; a `;` first (a tuple or
    # unit struct) ends it.
    if (sdecl && o > 0) { sdecl = 0; sopen = 1 } else if (sdecl && l ~ /;/) sdecl = 0
    if (edecl && o > 0) { edecl = 0; eopen = 1 }
    if (pend) {
        if (o > 0) { pend = 0; intest = 1; tstart = pdepth }
        else if (l ~ /;/) pend = 0
    }
    depth += o - c
    if (intest && depth <= tstart) intest = 0
    if (sopen && depth <= sdepth) sopen = 0
    if (eopen && depth <= edepth) eopen = 0

    # Unit-test code in crates/bench is figure code like the rest of it.
    key = cls
    if (cls == "unit") key = t ? "unit:" crate : "prod"
    skipped = 0
    while (match(l, /[A-Za-z_][A-Za-z0-9_]*/)) {
        tok = substr(l, RSTART, RLENGTH)
        l = substr(l, RSTART + RLENGTH)
        if (tok == defname && !skipped) { skipped = 1; continue }
        cnt[tok SUBSEP key]++
        if (key ~ /^unit:/) unit[tok]++
    }
}
END {
    if (mode == "table")
        printf "%-24s %-30s %-8s %6s %5s %5s %5s %5s %5s %5s\n", "crate", "item", "kind",
            "prod", "own", "other", "integ", "figs", "ex", "bench"
    for (i = 1; i <= n; i++) {
        m = iname[i]
        own = cnt[m SUBSEP "unit:" icrate[i]] + 0
        other = unit[m] - own
        p = cnt[m SUBSEP "prod"] + 0; ig = cnt[m SUBSEP "integ"] + 0
        fg = cnt[m SUBSEP "figs"] + 0; ex = cnt[m SUBSEP "ex"] + 0; bn = cnt[m SUBSEP "bench"] + 0
        beyond = p + other + ig + fg + ex + bn
        if (mode == "table")
            printf "%-24s %-30s %-8s %6d %5d %5d %5d %5d %5d %5d%s\n", icrate[i], m, ikind[i],
                p, own, other, ig, fg, ex, bn, beyond ? "" : (m in allowed ? "  (allowed)" : "  <- fails the gate")
        if (beyond == 0) {
            flagged[m] = 1
            if (mode == "gate" && !(m in allowed)) {
                printf "%s: %s `%s` is reached %s\n", iwhere[i], ikind[i], m,
                    own ? "only by its own crate'"'"'s unit tests (" own ")" : "by nothing"
                bad = 1
            }
        }
    }
    if (mode == "gate") for (i = 1; i <= nallow; i++) if (!(allowname[i] in flagged)) {
        printf "%s: `%s` is reached beyond its own unit tests now; drop it\n", allowfile, allowname[i]
        bad = 1
    }
    if (mode == "gate" && bad) exit 1
}
' $srcs $others
