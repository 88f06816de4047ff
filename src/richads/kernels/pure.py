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


def space_auction(adv, val, spc, n_adv, total, stop_on_misfit):
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
            held[a] = i
            held_spc[a] = spc[i]
            rem -= inc
        elif stop_on_misfit:
            space_a = held_spc[a] + rem
            frac_adv = a
            frac_num = space_a
            frac_den = spc[i]
            held[a] = i
            held_spc[a] = space_a
            rem = 0
            break
    return held, held_spc, frac_adv, frac_num, frac_den


def space_auction_traced(adv, val, spc, n_adv, total):
    """stop_on_misfit space auction that also labels the units it covers.

    Returns the usual auction tuple plus an event list. Each event is
    (kind, ad_index, start, end) where kind is "place", "replace" or
    "fractional" and [start, end) is the scaled-unit range newly covered
    by that ad. Units keep the label of the ad that first covered them;
    the fractional stop labels the whole leftover range.
    """
    held = [-1] * n_adv
    held_spc = [0] * n_adv
    rem = total
    used = 0
    frac_adv = -1
    frac_num = 0
    frac_den = 1
    events = []
    for i in _bpb_order(val, spc):
        if rem == 0:
            break
        a = adv[i]
        if spc[i] <= held_spc[a]:
            continue
        inc = spc[i] - held_spc[a]
        if inc <= rem:
            kind = "place" if held[a] < 0 else "replace"
            events.append((kind, i, used, used + inc))
            held[a] = i
            held_spc[a] = spc[i]
            used += inc
            rem -= inc
        else:
            space_a = held_spc[a] + rem
            events.append(("fractional", i, used, used + rem))
            frac_adv = a
            frac_num = space_a
            frac_den = spc[i]
            held[a] = i
            held_spc[a] = space_a
            used = total
            rem = 0
            break
    return held, held_spc, frac_adv, frac_num, frac_den, events


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
