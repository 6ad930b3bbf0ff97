"""Hand-emitted deterministic SVG for (h, r)-plane figures.

No plotting dependency: identical inputs must produce byte-identical files,
so every coordinate is formatted with fixed precision and elements are
emitted in a fixed order (background, gap shading, lines, guide, points,
axes, legend).  Points sit on the integer grid, so their coordinates are
formatted once per grid column and row, not once per point, and each run of
points in a row is drawn by one join.
"""

from __future__ import annotations

from fractions import Fraction

from .kspace import FigureDataset

# fixed 12-color legend palette
PALETTE = {
    "hyperelliptic": "#1f6f8b",
    "lower-3": "#b54248",
    "upper-4": "#d9823b",
    "lower-4": "#8a6f2f",
    "upper-6": "#5b8c5a",
    "cyclic-5": "#7a4f9e",
    "gap-shade-34": "#f2d5d5",
    "gap-shade-46": "#d5e3f2",
    "admissible": "#3a3a3a",
    "realized": "#1d8348",
    "exception-realized": "#c0392b",
    "exception-excluded": "#2e4053",
}

_POINT_STYLES = ("admissible", "realized", "exception-realized", "exception-excluded")

WIDTH, HEIGHT, MARGIN = 820.0, 560.0, 60.0


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _ratio(x, m) -> float:
    """x/m as a float for ints or Fractions, building no Fraction.

    Integer true division rounds correctly, so this is float(Fraction(x) / m).
    """
    return x.numerator * m.denominator / (x.denominator * m.numerator)


class _Canvas:
    def __init__(self, h_max: Fraction, r_max: Fraction):
        self.h_max = Fraction(h_max)
        self.r_max = Fraction(r_max)
        self.parts: list[str] = []

    def sx(self, h) -> float:
        return MARGIN + _ratio(h, self.h_max) * (WIDTH - 2 * MARGIN)

    def sy(self, r) -> float:
        return HEIGHT - MARGIN - _ratio(r, self.r_max) * (HEIGHT - 2 * MARGIN)

    def add(self, element: str) -> None:
        self.parts.append(element)

    def line(self, p1, p2, color: str, width: float = 1.4, dash: str | None = None) -> None:
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.add(
            f'<line x1="{_fmt(self.sx(p1[0]))}" y1="{_fmt(self.sy(p1[1]))}" '
            f'x2="{_fmt(self.sx(p2[0]))}" y2="{_fmt(self.sy(p2[1]))}" '
            f'stroke="{color}" stroke-width="{_fmt(width)}"{dash_attr} />'
        )

    def polygon(self, pts, fill: str) -> None:
        coords = " ".join(f"{_fmt(self.sx(h))},{_fmt(self.sy(r))}" for h, r in pts)
        self.add(f'<polygon points="{coords}" fill="{fill}" stroke="none" />')

    def text(self, x: float, y: float, content: str, size: int = 12, color: str = "#222222") -> None:
        self.add(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="monospace" '
            f'font-size="{size}" fill="{color}">{content}</text>'
        )


def _clip_line(line, h_max: Fraction, r_max: Fraction):
    """Exact segment of a*h + b*r = c inside [0, h_max] x [0, r_max], or None."""
    hits = []
    a, b, c = line.a, line.b, line.c
    if b != 0:
        for h in (Fraction(0), h_max):
            r = Fraction(c - a * h, b)
            if 0 <= r <= r_max:
                hits.append((h, r))
    if a != 0:
        for r in (Fraction(0), r_max):
            h = Fraction(c - b * r, a)
            if 0 <= h <= h_max:
                hits.append((h, r))
    uniq = sorted(set(hits))
    if len(uniq) < 2:
        return None
    return uniq[0], uniq[-1]


def render_figure(dataset: FigureDataset, config_note: str) -> str:
    """Render a figure dataset to a standalone SVG document string."""
    sigma = dataset.sigma
    h_max = Fraction(sigma, 2) + 2
    r_max = Fraction(2 * sigma + 2)
    cv = _Canvas(h_max, r_max)
    cv.add(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(WIDTH)}" '
        f'height="{_fmt(HEIGHT)}" viewBox="0 0 {_fmt(WIDTH)} {_fmt(HEIGHT)}">'
    )
    cv.add(f"<!-- {config_note} -->")
    cv.add(f'<rect x="0" y="0" width="{_fmt(WIDTH)}" height="{_fmt(HEIGHT)}" fill="#ffffff" />')

    # gap shading: triangle corner -> foot of each boundary line on r = 0, at h = c/a
    for region, key in zip(dataset.gaps, ("gap-shade-34", "gap-shade-46")):
        pts = [(region.corner.h, region.corner.r)] + [
            (Fraction(line.c, line.a), Fraction(0))
            for line in (region.boundary_upper, region.boundary_lower)
        ]
        if all(0 <= h <= h_max and 0 <= r <= r_max for h, r in pts):
            cv.polygon(pts, PALETTE[key])

    for name, line in dataset.lines:
        seg = _clip_line(line, h_max, r_max)
        if seg is not None:
            cv.line(seg[0], seg[1], PALETTE[name])

    # r = 1 guide
    cv.line((Fraction(0), Fraction(1)), (h_max, Fraction(1)), "#999999", width=0.8, dash="5,4")

    # points lie on the integer grid inside the box, 0 <= h <= h_max and
    # 0 <= r <= r_max, so each column's x, each row's y and each style's tail
    # are formatted once, and a run of points is one join over its rows' y
    xs = [_fmt(cv.sx(h)) for h in range((sigma + 4) // 2 + 1)]
    ys = [_fmt(cv.sy(r)) for r in range(2 * sigma + 3)]
    tails = {s: f'" r="{_fmt(3.0 if s == "admissible" else 4.0)}" fill="{PALETTE[s]}" />'
             for s in _POINT_STYLES}
    for h, runs in enumerate(dataset.rows):
        head = f'<circle cx="{xs[h]}" cy="'
        for lo, hi, status in runs:
            # certified-empty points are not drawn, only shaded
            if status != "gap":
                tail = tails[status]
                cv.add(head + (tail + "\n" + head).join(ys[lo:hi + 1]) + tail)

    # axes
    cv.line((Fraction(0), Fraction(0)), (h_max, Fraction(0)), "#000000", width=1.0)
    cv.line((Fraction(0), Fraction(0)), (Fraction(0), r_max), "#000000", width=1.0)
    h_step = max(1, sigma // 12)
    h_tick = 0
    while h_tick <= h_max:
        cv.text(cv.sx(h_tick) - 4, HEIGHT - MARGIN + 18, str(h_tick), size=10, color="#555555")
        h_tick += h_step
    r_step = max(1, (2 * sigma + 2) // 10)
    r_tick = 0
    while r_tick <= r_max:
        cv.text(MARGIN - 34, cv.sy(r_tick) + 4, str(r_tick), size=10, color="#555555")
        r_tick += r_step
    cv.text(WIDTH / 2 - 10, HEIGHT - 18, "h", size=13)
    cv.text(16, HEIGHT / 2, "r", size=13)
    cv.text(MARGIN, 24, f"(h, r)-plane for genus {sigma}", size=14)

    # legend: fixed 12 entries
    lx = WIDTH - MARGIN - 190
    ly = 40.0
    for idx, key in enumerate(PALETTE):
        y = ly + idx * 16
        if key in _POINT_STYLES:
            cv.add(
                f'<circle cx="{_fmt(lx + 5)}" cy="{_fmt(y - 4)}" r="4.000" fill="{PALETTE[key]}" />'
            )
        else:
            cv.add(
                f'<rect x="{_fmt(lx)}" y="{_fmt(y - 9)}" width="10.000" height="10.000" '
                f'fill="{PALETTE[key]}" />'
            )
        cv.text(lx + 16, y, key, size=10, color="#333333")
    cv.add("</svg>")
    return "\n".join(cv.parts) + "\n"
