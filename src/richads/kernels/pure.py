"""Kernel loops over scaled integers.

They run on plain ints (arbitrary precision), so no magnitude is too large.

Conventions:

* Ads arrive pre-sorted by (adv_id, ad_id); `adv[i]` is the advertiser index
  of ad i, `val[i]` its scaled effective value, `spc[i]` its scaled space.
* Bang-per-buck is compared exactly, as integers over one common scale.
* Ties in bang-per-buck (and value) fall back to the input index, which by
  the pre-sort means (adv_id, ad_id) ascending.
"""

from math import lcm


def _bpb_order(val, spc):
    """Indices by descending bang-per-buck val/spc, ties in input order.

    With L the lcm of the nonzero spaces, -val[i] * (L // spc[i]) is an
    integer key that orders like -val[i]/spc[i], and equal keys mean equal
    bang-per-buck, so the stable sort keeps input order among them. A
    zero-space row has unbounded bang-per-buck: all of them share one key
    below every other key.
    """
    if 0 in spc:
        scale = lcm(*(w for w in spc if w))
        keys = [-v * (scale // w) if w else None for v, w in zip(val, spc)]
        first = min((k for k in keys if k is not None), default=0) - 1
        keys = [first if k is None else k for k in keys]
    else:
        scale = lcm(*spc)
        keys = [-v * (scale // w) for v, w in zip(val, spc)]
    idx = list(range(len(val)))
    idx.sort(key=keys.__getitem__)
    return idx


def space_auction(adv, val, spc, n_adv, total, stop_on_misfit, events=None):
    """Run the greedy space scan shared by the allocation rules.

    Walks ads by decreasing bang-per-buck. An ad whose space does not exceed
    what its advertiser already holds is skipped; otherwise the increment is
    charged against the remaining budget. A non-fitting increment either
    stops the scan with a fractional tail (`stop_on_misfit`) or is skipped.

    Returns (held, held_spc, frac_adv, frac_num, frac_den) where `held[a]` is
    the ad index advertiser a ends up holding (-1 for none), `held_spc[a]`
    the space reserved for a, and the frac_* triple describes the fractional
    stop: advertiser index (or -1), plus numerator/denominator of the weight
    on the stopping ad.

    When `events` is a list, each ad that covers new units appends
    (kind, ad_index, start, end) to it: kind is "place", "replace" or
    "fractional" and [start, end) is the scaled-unit range newly covered by
    that ad. Units keep the label of the ad that first covered them; the
    fractional stop labels the whole leftover range.
    """
    held = [-1] * n_adv
    held_spc = [0] * n_adv
    rem = total
    frac_adv = -1
    frac_num = 0
    frac_den = 1
    for i in _bpb_order(val, spc):
        if rem == 0:
            break
        a = adv[i]
        if spc[i] <= held_spc[a]:
            continue
        inc = spc[i] - held_spc[a]
        if inc <= rem:
            if events is not None:
                events.append(("place" if held[a] < 0 else "replace", i, total - rem, total - rem + inc))
            held[a] = i
            held_spc[a] = spc[i]
            rem -= inc
        elif stop_on_misfit:
            if events is not None:
                events.append(("fractional", i, total - rem, total))
            space_a = held_spc[a] + rem
            frac_adv = a
            frac_num = space_a
            frac_den = spc[i]
            held[a] = i
            held_spc[a] = space_a
            rem = 0
            break
    return held, held_spc, frac_adv, frac_num, frac_den


def best_fit(adv, val, spc, n_adv, caps):
    """Per advertiser, the highest-value ad fitting in caps[a] (-1 if none).

    Strict improvement keeps the earliest index, so value ties resolve to the
    smallest ad_id under the canonical pre-sort.
    """
    best = [-1] * n_adv
    best_val = [0] * n_adv
    for i in range(len(val)):
        a = adv[i]
        if caps[a] <= 0 or spc[i] > caps[a]:
            continue
        if best[a] < 0 or val[i] > best_val[a]:
            best[a] = i
            best_val[a] = val[i]
    return best


def value_greedy(adv, val, spc, n_adv, total, limit):
    """Scan ads by decreasing value; allocate first fitting ad per advertiser.

    An advertiser who already holds an ad is skipped entirely; a non-fitting
    ad is skipped but leaves its advertiser eligible. Stops after `limit`
    distinct advertisers hold ads.
    """
    idx = list(range(len(val)))
    idx.sort(key=lambda i: -val[i])  # stable: value ties keep (adv, ad) order
    held = [-1] * n_adv
    rem = total
    placed = 0
    for i in idx:
        if placed >= limit:
            break
        a = adv[i]
        if held[a] >= 0:
            continue
        if spc[i] <= rem:
            held[a] = i
            rem -= spc[i]
            placed += 1
    return held


def greedy_step(held: dict, rem: int, k: int, a: int, v: int, w: int) -> int:
    """One row of the capped bang-per-buck greedy walk: advertiser `a`'s row
    of value `v` and space `w` against `held` (advertiser index -> (value,
    space)) with `rem` space left. Updates `held` and returns the space
    left.

    A holder takes a larger row that fits its increment; a newcomer is
    admitted if it fits and fewer than k advertisers hold, else it may push
    out the holder of lowest value (ties to the lowest index) when it
    strictly beats that value and fits in the space so freed."""
    got = held.get(a)
    if got is not None:
        if got[1] < w <= got[1] + rem:
            held[a] = (v, w)
            return rem - (w - got[1])
        return rem
    if len(held) < k:
        if w <= rem:
            held[a] = (v, w)
            return rem - w
        return rem
    e = min(held, key=lambda b: (held[b][0], b))
    ev, ew = held[e]
    if v > ev and w <= rem + ew:
        del held[e]
        held[a] = (v, w)
        return rem + ew - w
    return rem
