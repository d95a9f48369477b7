"""Color labels and deterministic SVG renderings.

Each two-qubit operator owns one of fifteen color labels: a chroma letter
(B, G or R) and a flavor digit 0..4.  Chroma fixes the hue (R at 0
degrees, B at 120, G at 240) and flavor fixes saturation and value, with
flavor 0 the least intense.  Flavor-0 colors act as chameleons in row
judgments: they adopt the chroma shared by the other members of their
row, but keep their literal chroma when the row mixes all three chromas.

SVG output is plain generated text with fixed formatting, so identical
input yields byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import designs, pauli
from .errors import RenderError
from .resolver import DAY_DISPLAY_ORDER

__all__ = [
    "ColorLabel",
    "HsvColor",
    "TilingSpec",
    "CHROMA_HUE",
    "FLAVOR_SV",
    "color_of",
    "hsv_of",
    "rgb8_of",
    "hex_of",
    "row_color_class",
    "render_tiling",
    "render_diagram",
]

CHROMA_HUE = {"R": 0.0, "B": 120.0, "G": 240.0}

# flavor -> (saturation, value); flavor 0 is the least intense
FLAVOR_SV = {
    0: (1.00, 0.55),
    1: (0.90, 0.70),
    2: (0.75, 0.82),
    3: (0.55, 0.92),
    4: (0.30, 1.00),
}


@dataclass(frozen=True, order=True)
class ColorLabel:
    chroma: str
    flavor: int

    def __post_init__(self):
        if self.chroma not in CHROMA_HUE or self.flavor not in FLAVOR_SV:
            raise RenderError(f"invalid color label {self.chroma}{self.flavor}")

    @classmethod
    def parse(cls, code):
        code = code.strip()
        if len(code) != 2 or not code[1].isdigit():
            raise RenderError(f"unparseable color code {code!r}")
        return cls(code[0], int(code[1]))

    @property
    def text(self):
        return f"{self.chroma}{self.flavor}"

    def __str__(self):
        return self.text


@dataclass(frozen=True)
class HsvColor:
    hue: float
    saturation: float
    value: float


def color_of(label):
    """Dictionary color of a two-qubit operator label."""
    return ColorLabel.parse(pauli.dictionary(label).color)


def hsv_of(color):
    s, v = FLAVOR_SV[color.flavor]
    return HsvColor(CHROMA_HUE[color.chroma], s, v)


def rgb8_of(color):
    """8-bit RGB via the standard hexagonal HSV conversion, rounding half up."""
    hsv = hsv_of(color)
    c = hsv.value * hsv.saturation
    segment = hsv.hue / 60.0
    x = c * (1.0 - abs(segment % 2.0 - 1.0))
    m = hsv.value - c
    rgb1 = {0: (c, x, 0.0), 1: (x, c, 0.0), 2: (0.0, c, x), 3: (0.0, x, c), 4: (x, 0.0, c), 5: (c, 0.0, x)}[int(segment) % 6]
    return tuple(int(ch * 255.0 + 0.5) for ch in (rgb1[0] + m, rgb1[1] + m, rgb1[2] + m))


def hex_of(color):
    r, g, b = rgb8_of(color)
    return f"#{r:02x}{g:02x}{b:02x}"


def row_color_class(colors):
    """Judge a three-color row: 'B', 'G', 'R', 'colorless' or 'mixed'.

    A row with one color of each chroma (flavor 0 taken literally) is
    colorless.  Otherwise flavor-0 members chameleon onto the chroma the
    other members agree on; a row whose members then share one chroma is
    monochrome in it.
    """
    colors = [c if isinstance(c, ColorLabel) else ColorLabel.parse(c) for c in colors]
    if len(colors) != 3:
        raise RenderError(f"row judgment needs three colors, got {len(colors)}")
    chromas = [c.chroma for c in colors]
    if set(chromas) == set(CHROMA_HUE):
        return "colorless"
    if len(set(chromas)) == 1:
        return chromas[0]
    solid = {c.chroma for c in colors if c.flavor != 0}
    if len(solid) == 1:
        return solid.pop()
    return "mixed"


# ---------------------------------------------------------------------------
# SVG generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TilingSpec:
    """Tile geometry in user units plus grouping gaps."""

    tile_width: float = 42.0
    tile_height: float = 42.0
    row_gap: float = 6.0
    group_gap: float = 26.0
    margin: float = 12.0
    labels: bool = True


def _f(value):
    return f"{value:.2f}"


def _svg_open(width, height):
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(width)}" height="{_f(height)}" '
        f'viewBox="0 0 {_f(width)} {_f(height)}">'
    ]


def _tile_row(design, block, x, y, spec, parts):
    for i, point in enumerate(designs.display_order(design, block)):
        fill = hex_of(color_of(design.assignment[point]))
        parts.append(
            f'<rect class="tile" x="{_f(x + i * spec.tile_width)}" y="{_f(y)}" '
            f'width="{_f(spec.tile_width)}" height="{_f(spec.tile_height)}" fill="{fill}"/>'
        )


def render_tiling(design, resolution=None, spec=None):
    """Color tiling as an SVG string.

    Without a resolution every block becomes one three-tile row (seven
    rows for a plane design).  With a resolution the rows are grouped by
    day in display order, five rows per day, plane block first.
    """
    if design.seeds[0].width != 4:
        raise RenderError("color rendering needs two-qubit operators")
    spec = spec or TilingSpec()
    parts = []
    y = spec.margin
    row_h = spec.tile_height + spec.row_gap
    width = 2 * spec.margin + 3 * spec.tile_width + (70.0 if spec.labels else 0.0)
    x = spec.margin + (70.0 if spec.labels else 0.0)
    if resolution is None:
        for block in design.blocks:
            _tile_row(design, block, x, y, spec, parts)
            y += row_h
    else:
        for day in DAY_DISPLAY_ORDER:
            if spec.labels:
                parts.append(
                    f'<text x="{_f(spec.margin)}" y="{_f(y + 0.62 * spec.tile_height)}" '
                    f'font-family="monospace" font-size="14">{day.name} {day.bits}</text>'
                )
            for block in resolution.classes[day]:
                _tile_row(design, block, x, y, spec, parts)
                y += row_h
            y += spec.group_gap
        y -= spec.group_gap
    height = y - spec.row_gap + spec.margin
    return "\n".join(_svg_open(width, height) + parts + ["</svg>"]) + "\n"


def _diagram_dots(design, placements, side, margin, parts, labels):
    for pl in placements:
        cx, cy = margin + pl.x * side, margin + pl.y * side
        fill = hex_of(color_of(design.assignment[pl.point]))
        parts.append(f'<circle class="pt" cx="{_f(cx)}" cy="{_f(cy)}" r="9.00" fill="{fill}" stroke="#222222"/>')
        if labels and pl.primary:
            code = color_of(design.assignment[pl.point]).text
            parts.append(
                f'<text x="{_f(cx + 11)}" y="{_f(cy - 6)}" font-family="monospace" font-size="11">'
                f"{code} ({pl.point.bits})</text>"
            )


def _line(parts, a, b, side, margin):
    parts.append(
        f'<line class="edge" x1="{_f(margin + a[0] * side)}" y1="{_f(margin + a[1] * side)}" '
        f'x2="{_f(margin + b[0] * side)}" y2="{_f(margin + b[1] * side)}" stroke="#555555" stroke-width="1.5"/>'
    )


def render_diagram(design, layout=None, labels=True):
    """Geometric point diagram (triangle, cube or tetrahedron) as SVG."""
    if design.seeds[0].width != 4:
        raise RenderError("color rendering needs two-qubit operators")
    if layout is None:
        layout = "triangle" if design.m == 3 else "tetrahedron"
    placements = designs.embed_coordinates(design, layout)
    side, margin = 430.0, 60.0
    size = side + 2 * margin
    parts = _svg_open(size, size)
    pos = {pl.point.value: (pl.x, pl.y) for pl in placements if pl.primary}

    if layout == "triangle":
        vertices = [0b100, 0b010, 0b001]
        for i, a in enumerate(vertices):
            for b in vertices[i + 1:]:
                _line(parts, pos[a], pos[b], side, margin)          # sides
            _line(parts, pos[a], pos[a ^ 0b111], side, margin)      # medians through the center
        center = pos[0b111]
        radius = ((center[0] - pos[0b110][0]) ** 2 + (center[1] - pos[0b110][1]) ** 2) ** 0.5
        parts.append(
            f'<circle class="edge" cx="{_f(margin + center[0] * side)}" cy="{_f(margin + center[1] * side)}" '
            f'r="{_f(radius * side)}" fill="none" stroke="#555555" stroke-width="1.5"/>'
        )
    elif layout == "cube":
        corners = [p.value for p in design.points if not p.in_plane]
        for a in corners:
            for axis in (0b0100, 0b0010, 0b0001):
                b = a ^ axis
                if b > a:
                    ap = designs._cube_corner_position(a)
                    bp = designs._cube_corner_position(b)
                    _line(parts, ap, bp, side, margin)
    else:
        vertices = [0b1000, 0b0100, 0b0010, 0b0001]
        for i, a in enumerate(vertices):
            for b in vertices[i + 1:]:
                _line(parts, pos[a], pos[b], side, margin)

    _diagram_dots(design, placements, side, margin, parts, labels)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
