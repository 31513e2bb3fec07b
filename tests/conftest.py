"""Shared generators for randomized tests, the presentation builders
that several test modules use, and cold, the one way a test starts a new
lescop process.

All randomness is seeded (`random.Random(seed)`), so failures reproduce.
Random Seifert matrices are built with V - V^T equal to the standard
symplectic form, which makes them valid by construction while leaving the
symmetric part free.
"""

from fractions import Fraction
from operator import mul
from pathlib import Path
import os
import random
import subprocess
import sys

import pytest

import lescop
from lescop.corpus import corpus
from lescop.documents import PresentationDocument, serialize
from lescop.presentation import Component, RibbonPairSpec, SurgeryPresentation


def random_seifert(rng, g, bound=3):
    """Random integer 2g x 2g matrix with det(V - V^T) = 1, |entries| <= bound."""
    n = 2 * g
    j = [[0] * n for _ in range(n)]
    for m in range(g):
        j[2 * m][2 * m + 1] = 1
        j[2 * m + 1][2 * m] = -1
    v = [[0] * n for _ in range(n)]
    for i in range(n):
        v[i][i] = rng.randint(-bound, bound)
        for k in range(i + 1, n):
            skew = j[i][k]
            x = rng.randint(-bound + max(skew, 0), bound + min(skew, 0))
            v[i][k] = x
            v[k][i] = x - skew
    return tuple(tuple(Fraction(x) for x in row) for row in v)


def unimodular(rng, n, steps):
    """A random n x n integer matrix of determinant +-1: steps row operations and swaps on I."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.3:
            u[i], u[j] = u[j], u[i]
        else:
            c = rng.choice((-2, -1, 1, 2))
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    return u


def conjugated(v, u):
    """U^T V U for an integral V: the Seifert matrix of the same surface in
    the basis U."""
    vu = [[sum(map(mul, map(int, row), col)) for col in zip(*u)] for row in v]
    return [[sum(map(mul, row, col)) for col in zip(*vu)] for row in zip(*u)]


def random_presentation(rng, n_components, h=1, gmax=3, bound=3):
    names = [f"l{i + 1}" for i in range(n_components)]
    comps = []
    for name in names:
        g = rng.randint(0, gmax)
        seifert = random_seifert(rng, g, bound)
        linking = {
            other: tuple(Fraction(rng.randint(-bound, bound)) for _ in range(2 * g))
            for other in names
            if other != name
        }
        comps.append(Component(name=name, seifert=seifert, linking=linking))
    return SurgeryPresentation(base_order=h, components=tuple(comps))


def knot_surgery(v, h=1):
    """A presentation of one 0-framed component with Seifert matrix v, base order h."""
    return SurgeryPresentation(h, (Component("l1", v, {}),))


def with_extra_unknots(p, count):
    """Append 0-framed unknotted components that link nothing."""
    comps = list(p.components)
    extra = [f"x{i}" for i in range(count)]
    comps = [
        Component(
            c.name,
            c.seifert,
            {**c.linking, **{e: (Fraction(0),) * c.size for e in extra}},
        )
        for c in comps
    ]
    all_names = [c.name for c in comps] + extra
    for e in extra:
        comps.append(Component(e, (), {o: () for o in all_names if o != e}))
    return SurgeryPresentation(p.base_order, tuple(comps))


def random_ribbon_spec(rng, s=None, gmax=3, bound=3, h=1):
    g = rng.randint(0, gmax)
    if s is None:
        s = rng.randint(-5, 5)
    return RibbonPairSpec(
        s=s,
        a=tuple(Fraction(rng.randint(-bound, bound)) for _ in range(2 * g)),
        w=random_seifert(rng, g, bound),
        epsilon=rng.choice((1, -1)),
        base_order=h,
    )


def fractional_presentation(rng):
    """1-5 components, the first of genus 0-2.  With h > 1 the first Seifert
    matrix sometimes gains a fractional symmetric part, and the linking
    vectors carry denominators 2, 3 and 7, so V may be integral while the
    E are not."""
    h = rng.choice((1, 2, 3, 4))
    names = [f"l{i + 1}" for i in range(rng.randint(1, 5))]
    denominators = (1, 2, 3, 7) if h > 1 else (1,)
    comps = []
    for k, name in enumerate(names):
        g = rng.randint(0, 2) if k == 0 else rng.randint(0, 1)
        v = random_seifert(rng, g, bound=2)
        if k == 0 and h > 1 and rng.random() < 0.5:
            v = with_fractional_symmetric_part(rng, v)
        linking = {
            other: tuple(Fraction(rng.randint(-3, 3), rng.choice(denominators)) for _ in range(2 * g))
            for other in names if other != name
        }
        comps.append(Component(name, v, linking))
    return SurgeryPresentation(h, tuple(comps))


def with_fractional_symmetric_part(rng, v):
    """v plus a random symmetric matrix of entries a/q, |a| <= 3 and q in
    {2, 3, 7}, which leaves V - V^T as it is."""
    v = [list(row) for row in v]
    for i in range(len(v)):
        for j in range(i, len(v)):
            x = Fraction(rng.randint(-3, 3), rng.choice((2, 3, 7)))
            v[i][j] += x
            if j != i:
                v[j][i] += x
    return v


def rational_presentation(rng, n_components, gmax=3):
    """n_components of genus 0 to gmax over h = 2, each Seifert matrix
    with a fractional symmetric part and each linking vector with
    denominators 1, 2, 3 and 7, so the integral forms mostly have d > 1."""
    names = [f"l{i + 1}" for i in range(n_components)]
    comps = []
    for name in names:
        g = rng.randint(0, gmax)
        v = with_fractional_symmetric_part(rng, random_seifert(rng, g, bound=2))
        linking = {
            other: tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 7))) for _ in range(2 * g))
            for other in names if other != name
        }
        comps.append(Component(name, v, linking))
    return SurgeryPresentation(2, tuple(comps))


def dense_knot_document(g, seed=24):
    """Document text of one 0-framed knot with a random genus-g Seifert matrix.

    Run as `python tests/conftest.py G` it prints that document for genus G.
    """
    p = SurgeryPresentation(1, (Component("l1", random_seifert(seeded(seed), g), {}),))
    return serialize(PresentationDocument(p))


def sheared_knot_document(g, seed=24):
    """Document text of the knot of dense_knot_document(g, seed) in a
    random basis: V becomes U^T V U for U = unimodular(rng, 2g, 6g), so
    from genus 2 on S = V - V^T no longer has one +-1 per row and
    presentation.skew_form inverts it by elimination.

    Run as `python tests/conftest.py sheared G` it prints that document
    for genus G.
    """
    rng = seeded(seed)
    v = conjugated(random_seifert(rng, g), unimodular(rng, 2 * g, 6 * g))
    return serialize(PresentationDocument(SurgeryPresentation(1, (Component("l1", v, {}),))))


def split_link_document(components, genus, seed=24):
    """Document text of a split link: a random genus-`genus` knot l1 and
    components - 1 unknots, every linking vector zero.

    The triangle route visits 2^(components - 1) leaves on it.  Run as
    `python tests/conftest.py N G` it prints that document for N components.
    """
    names = [f"l{i + 1}" for i in range(components)]
    first = Component("l1", random_seifert(seeded(seed), genus),
                      {other: (0,) * (2 * genus) for other in names[1:]})
    return knot_and_unknots_document(first, names)


def linked_link_document(components, genus, seed=24):
    """Document text of a random genus-`genus` knot l1 and components - 1
    unknots, with every linking vector of l1 random and nonzero.

    Unlike on a split link, where a zero vector lets the triangle route
    skip its walk, the route visits all 2^(components - 1) leaves here.
    Run as `python tests/conftest.py linked N G` it prints that document
    for N components.
    """
    rng = seeded(seed)
    names = [f"l{i + 1}" for i in range(components)]
    vectors = {}
    for other in names[1:]:
        e = [0] * (2 * genus)
        while genus and not any(e):
            e = [rng.randint(-3, 3) for _ in e]
        vectors[other] = tuple(e)
    return knot_and_unknots_document(Component("l1", random_seifert(rng, genus), vectors), names)


def knot_and_unknots_document(first, names):
    """Document text of the component first, named names[0], and unknots
    named names[1:] that link nothing, over h = 1."""
    unknots = [Component(name, (), {other: () for other in names if other != name})
               for name in names[1:]]
    return serialize(PresentationDocument(SurgeryPresentation(1, (first, *unknots))))


def primes(count):
    """The first count primes."""
    found = []
    k = 2
    while len(found) < count:
        if all(k % q for q in found):
            found.append(k)
        k += 1
    return found


def hostile_rational_document(components, digits=1000, seed=24):
    """Document text of a presentation with h = 2 and genus-1 components
    whose every linking vector has its own prime-power denominator of
    about `digits` digits, so a component's common denominator has about
    (components - 1) * digits of them.

    Every formula runs on the integral form of the first component, whose
    d is the square of that denominator.  Run as
    `python tests/conftest.py hostile N` it prints that document for N
    components.
    """
    rng = seeded(seed)
    names = [f"l{i + 1}" for i in range(components)]
    denominators = iter(primes(components * (components - 1)))
    comps = []
    for name in names:
        linking = {}
        for other in names:
            if other != name:
                p = next(denominators)
                q = p
                while q < 10 ** (digits - 1):
                    q *= p
                linking[other] = tuple(Fraction(rng.choice((1, -1)), q) for _ in range(2))
        comps.append(Component(name, random_seifert(rng, 1), linking))
    return serialize(PresentationDocument(SurgeryPresentation(2, tuple(comps))))


def seeded(seed=20240815):
    return random.Random(seed)


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    """All built-in examples written out as files."""
    d = tmp_path_factory.mktemp("corpus")
    for name, doc in corpus().items():
        (d / f"{name}.json").write_text(serialize(doc), encoding="utf-8")
    return d


def cold(argv, stdout="open", stderr="open", buffered=True, timeout=30, cwd=None):
    """(exit code, stdout, stderr) of a new `python -m lescop` process on
    argv, which imports this lescop, run in cwd.  Each standard stream is
    "open", a pipe whose text is returned; "reader closed", a pipe whose
    reader closed before the start, so there is no race; or "closed" at
    start, as `>&-` leaves it.  A stream that is not open returns None.
    buffered=False sets PYTHONUNBUFFERED.  Raises
    subprocess.TimeoutExpired after timeout seconds."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(lescop.__file__).resolve().parents[1])
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    closed = [fd for fd, condition in ((1, stdout), (2, stderr)) if condition == "closed"]

    def close_at_start():  # in the child, after its streams are set up
        for fd in closed:
            os.close(fd)

    read, write = os.pipe()
    os.close(read)
    streams = {"open": subprocess.PIPE, "reader closed": write, "closed": subprocess.DEVNULL}
    try:
        done = subprocess.run([sys.executable, "-m", "lescop", *argv], stdout=streams[stdout],
                              stderr=streams[stderr], text=True, timeout=timeout, env=env,
                              cwd=cwd, preexec_fn=close_at_start if closed else None)
    finally:
        os.close(write)
    return done.returncode, done.stdout, done.stderr


def generated_document(args):
    """The document text that `python tests/conftest.py ARGS` prints, for
    the words of ARGS: "hostile N", "sheared G", "linked N G", "N G" (a
    split link) or "G" (a dense knot)."""
    if args[0] == "hostile":
        return hostile_rational_document(int(args[1]))
    if args[0] == "sheared":
        return sheared_knot_document(int(args[1]))
    if args[0] == "linked":
        return linked_link_document(int(args[1]), int(args[2]))
    sizes = [int(x) for x in args]
    return split_link_document(*sizes) if len(sizes) == 2 else dense_knot_document(*sizes)


if __name__ == "__main__":
    import sys

    print(generated_document(sys.argv[1:]), end="")
