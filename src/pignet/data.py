"""Point-cloud ingestion, normalization, sampling, augmentation, corruption
generators, and a procedural generator of labeled desk-scale shapes.

File formats: a points file holds one whitespace-separated ``x y z`` triple
per line; a labels file holds one integer part id per line, one per point.
A dataset root is laid out as ``<root>/<category>/points/<id>.pts`` and
``<root>/<category>/points_label/<id>.seg`` with ``train.txt``, ``val.txt``
and ``test.txt`` manifests (one id per line) next to them.
"""

import functools
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (ConfigError, DataError, DegenerateError, ParseError,
                     UsageError)
from .model import _integer, _real
from .seeding import rng_of


@dataclass
class PointCloud:
    """n x 3 coordinates, one part label per point, and a category."""

    points: np.ndarray
    labels: np.ndarray
    category: str = ""

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise DataError(f"points must be (n, 3), got {self.points.shape}")
        labels = np.asarray(self.labels)
        if labels.shape != (self.n,):
            what = (f"{labels.size} labels" if labels.ndim == 1
                    else f"labels of shape {labels.shape}")
            raise DataError(f"{self.n} points but {what}")
        self.labels = labels.astype(np.int64, copy=False)

    @property
    def n(self):
        return self.points.shape[0]


def utf8_lines(path):
    """The lines of a UTF-8 text file, split as ``open`` splits them; bytes
    that are not UTF-8 raise ParseError naming the file and line."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data[:exc.start].count(b"\n") + 1
        raise ParseError(f"{path}:{line}: not UTF-8 text") from exc
    return io.StringIO(text, newline=None).readlines()


def _numbered_lines(path):
    """(line number, line) of each non-blank line of a UTF-8 text file."""
    return [(n, line) for n, line in enumerate(utf8_lines(path), start=1)
            if line.strip()]


def load_cloud(points_path, labels_path, category=""):
    """Parse a points file and its labels file into a PointCloud.

    Empty files, bytes that are not UTF-8, non-finite coordinates (``nan``,
    ``inf``) and labels that are negative or exceed int64 raise a ParseError
    naming the file, and the line where there is one.
    """
    lines = _numbered_lines(points_path)
    points = []
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(
                f"{points_path}:{lineno}: expected 'x y z', got {line!r}")
        try:
            points.append([float(v) for v in parts])
        except ValueError:
            raise ParseError(
                f"{points_path}:{lineno}: not a real triple: {line!r}")
    if not points:
        raise ParseError(f"{points_path}: holds no points")
    coords = np.array(points, dtype=np.float64)
    finite = np.isfinite(coords).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ParseError(
            f"{points_path}:{lines[row][0]}: non-finite "
            f"coordinate in {coords[row].tolist()}")
    labels = []
    for lineno, line in _numbered_lines(labels_path):
        try:
            label = int(line)
        except ValueError:
            raise ParseError(
                f"{labels_path}:{lineno}: not an integer label: {line!r}")
        if label < 0:
            raise ParseError(f"{labels_path}:{lineno}: negative label {label}")
        if label > np.iinfo(np.int64).max:
            raise ParseError(
                f"{labels_path}:{lineno}: label {label} exceeds int64")
        labels.append(label)
    if len(labels) != len(points):
        raise DataError(
            f"{points_path} has {len(points)} points but {labels_path} "
            f"has {len(labels)} labels")
    return PointCloud(coords, np.array(labels), category)


def save_cloud(cloud, points_path, labels_path):
    """Write a cloud back to disk; coordinates keep six decimals."""
    np.savetxt(points_path, cloud.points, fmt="%.6f")
    np.savetxt(labels_path, cloud.labels, fmt="%d")


def normalize(cloud):
    """Center the cloud at the origin and scale the farthest point to norm 1."""
    center = cloud.points.mean(axis=0)
    centered = cloud.points - center
    radius = np.linalg.norm(centered, axis=1).max()
    if radius == 0.0:
        raise DegenerateError("all points are identical; cannot normalize")
    return PointCloud(centered / radius, cloud.labels, cloud.category)


def sample_points(cloud, m, seed):
    """Draw m points uniformly: without replacement when the cloud has at
    least m, with replacement otherwise. Labels travel with their points."""
    if m < 1:
        raise UsageError(f"sample size must be >= 1, got {m}")
    rng = rng_of(seed)
    idx = rng.choice(cloud.n, size=m, replace=cloud.n < m)
    return PointCloud(cloud.points[idx], cloud.labels[idx], cloud.category)


def rotate_up(points, angle, up_axis=1):
    """Rotate (n, 3) coordinates by ``angle`` about the given up axis."""
    c, s = math.cos(angle), math.sin(angle)
    rot = np.eye(3)
    a, b = [i for i in range(3) if i != up_axis]
    rot[a, a] = c
    rot[a, b] = s
    rot[b, a] = -s
    rot[b, b] = c
    return points @ rot


@dataclass
class AugmentConfig:
    """Training-time randomization: up-axis rotation, anisotropic scaling,
    translation, and per-point Gaussian jitter, applied in that order."""

    rotate_up_axis: bool = True
    scale_range: tuple = (0.66, 1.5)
    translate_range: tuple = (-0.2, 0.2)
    jitter_sigma: float = 0.01
    up_axis: int = 1

    def __post_init__(self):
        if not isinstance(self.rotate_up_axis, bool):
            raise ConfigError(f"rotate_up_axis must be true or false, "
                              f"got {self.rotate_up_axis!r}")
        for name in ("scale_range", "translate_range"):
            bounds = getattr(self, name)
            bounds = tuple(bounds) if np.iterable(bounds) else (bounds,)
            for bound in bounds:
                _real(name, bound)
            if len(bounds) != 2 or bounds[0] > bounds[1]:
                raise ConfigError(
                    f"{name} must be two values low <= high, got {bounds}")
            if not all(map(math.isfinite, bounds)):
                raise ConfigError(f"{name} must be finite, got {bounds}")
            setattr(self, name, bounds)
        if self.scale_range[0] <= 0:
            raise ConfigError(
                f"scale range must stay positive, got {self.scale_range}")
        if not 0 <= _real("jitter_sigma", self.jitter_sigma) < math.inf:
            raise ConfigError(
                f"jitter sigma must be finite and >= 0, got {self.jitter_sigma}")
        if _integer("up_axis", self.up_axis) not in (0, 1, 2):
            raise ConfigError(f"up_axis must be 0, 1 or 2, got {self.up_axis}")


def augment(cloud, cfg, rng):
    """Apply the configured randomization; labels and point count never change."""
    rng = rng_of(rng)
    pts = cloud.points
    if cfg.rotate_up_axis:
        pts = rotate_up(pts, rng.uniform(0.0, 2.0 * math.pi), cfg.up_axis)
    pts = pts * rng.uniform(cfg.scale_range[0], cfg.scale_range[1], size=3)
    pts = pts + rng.uniform(cfg.translate_range[0], cfg.translate_range[1],
                            size=3)
    if cfg.jitter_sigma > 0:
        pts = pts + rng.normal(0.0, cfg.jitter_sigma, size=pts.shape)
    return PointCloud(pts, cloud.labels, cloud.category)


def add_gaussian_noise(cloud, sigma, seed):
    """Perturbation corruption: independent N(0, sigma^2) on every coordinate."""
    if sigma < 0:
        raise UsageError(f"noise sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return cloud
    rng = rng_of(seed)
    return PointCloud(cloud.points + rng.normal(0.0, sigma, cloud.points.shape),
                      cloud.labels, cloud.category)


# ---------------------------------------------------------------------------
# synthetic labeled shapes
# ---------------------------------------------------------------------------

# parameter ranges of the generators, exposed so tests can bound parts
LAMP_BASE_RADIUS = (0.25, 0.4)
LAMP_POLE_RADIUS = (0.02, 0.05)
LAMP_POLE_HEIGHT = (0.8, 1.2)
LAMP_SHADE_HEIGHT = (0.25, 0.4)
LAMP_SHADE_RADIUS = (0.3, 0.45)
ROCKET_BODY_RADIUS = (0.1, 0.18)
ROCKET_BODY_HEIGHT = (0.7, 1.0)
ROCKET_NOSE_HEIGHT = (0.25, 0.4)
ROCKET_FIN_WIDTH = (0.12, 0.2)
ROCKET_FIN_HEIGHT = (0.2, 0.3)
TABLE_HALF_WIDTH = (0.4, 0.6)
TABLE_HEIGHT = (0.5, 0.8)
TABLE_LEG_RADIUS = (0.02, 0.05)


def _split_counts(n, fractions):
    counts = [int(n * f) for f in fractions[:-1]]
    counts.append(n - sum(counts))
    return counts


def _circle(rng, count):
    theta = rng.uniform(0.0, 2.0 * math.pi, count)
    return np.cos(theta), np.sin(theta)


def _lamp(rng, n):
    rb = rng.uniform(*LAMP_BASE_RADIUS)
    rp = rng.uniform(*LAMP_POLE_RADIUS)
    hp = rng.uniform(*LAMP_POLE_HEIGHT)
    hs = rng.uniform(*LAMP_SHADE_HEIGHT)
    rs = rng.uniform(*LAMP_SHADE_RADIUS)
    nb, np_, ns = _split_counts(n, (0.25, 0.35, 0.4))

    r = rb * np.sqrt(rng.uniform(0.0, 1.0, nb))
    cx, sz = _circle(rng, nb)
    base = np.column_stack([r * cx, np.zeros(nb), r * sz])

    cx, sz = _circle(rng, np_)
    y = rng.uniform(0.0, hp, np_)
    pole = np.column_stack([rp * cx, y, rp * sz])

    y = rng.uniform(hp, hp + hs, ns)
    radius = rs + (0.05 - rs) * (y - hp) / hs  # cone narrows toward the top
    cx, sz = _circle(rng, ns)
    shade = np.column_stack([radius * cx, y, radius * sz])

    points = np.vstack([base, pole, shade])
    labels = np.concatenate([np.zeros(nb), np.ones(np_), np.full(ns, 2)])
    return points, labels.astype(np.int64)


def _rocket(rng, n):
    rb = rng.uniform(*ROCKET_BODY_RADIUS)
    hb = rng.uniform(*ROCKET_BODY_HEIGHT)
    hn = rng.uniform(*ROCKET_NOSE_HEIGHT)
    fw = rng.uniform(*ROCKET_FIN_WIDTH)
    fh = rng.uniform(*ROCKET_FIN_HEIGHT)
    nb, nn, nf = _split_counts(n, (0.5, 0.25, 0.25))

    cx, sz = _circle(rng, nb)
    y = rng.uniform(0.0, hb, nb)
    body = np.column_stack([rb * cx, y, rb * sz])

    # clear margins keep the parts unambiguous under jitter: the nose starts
    # above the body rim and the fins clear the body wall
    y = rng.uniform(hb + 0.08, hb + hn, nn)
    radius = rb * (1.0 - (y - hb) / hn)
    cx, sz = _circle(rng, nn)
    nose = np.column_stack([radius * cx, y, radius * sz])

    angles = rng.choice(3, nf) * (2.0 * math.pi / 3.0)
    r = rng.uniform(rb + 0.08, rb + 0.08 + fw, nf)
    y = rng.uniform(0.0, fh, nf)
    fins = np.column_stack([r * np.cos(angles), y, r * np.sin(angles)])

    points = np.vstack([body, nose, fins])
    labels = np.concatenate([np.zeros(nb), np.ones(nn), np.full(nf, 2)])
    return points, labels.astype(np.int64)


def _table(rng, n):
    hw = rng.uniform(*TABLE_HALF_WIDTH)
    h = rng.uniform(*TABLE_HEIGHT)
    rl = rng.uniform(*TABLE_LEG_RADIUS)
    nt, nl = _split_counts(n, (0.55, 0.45))

    top = np.column_stack([rng.uniform(-hw, hw, nt),
                           np.full(nt, h),
                           rng.uniform(-hw, hw, nt)])

    corner = rng.choice(4, nl)
    ox = np.where(corner % 2 == 0, hw - 0.05, -(hw - 0.05))
    oz = np.where(corner < 2, hw - 0.05, -(hw - 0.05))
    cx, sz = _circle(rng, nl)
    y = rng.uniform(0.0, h, nl)
    legs = np.column_stack([ox + rl * cx, y, oz + rl * sz])

    points = np.vstack([top, legs])
    labels = np.concatenate([np.zeros(nt), np.ones(nl)])
    return points, labels.astype(np.int64)


SYNTH_SHAPES = {"lamp": _lamp, "rocket": _rocket, "table": _table}


def synth_generate(category, count, seed, points_per_shape=2048):
    """Procedurally generate ``count`` labeled shapes of one category."""
    if category not in SYNTH_SHAPES:
        raise UsageError(
            f"unknown synthetic shape {category!r}; "
            f"choose from {sorted(SYNTH_SHAPES)}")
    gen = SYNTH_SHAPES[category]
    clouds = []
    for i in range(count):
        rng = rng_of((seed, i), *[ord(c) for c in category])
        points, labels = gen(rng, points_per_shape)
        order = rng.permutation(points.shape[0])
        clouds.append(PointCloud(points[order], labels[order], category))
    return clouds


# ---------------------------------------------------------------------------
# dataset splits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShapeRecord:
    """One labeled shape; ``cloud`` parses its files on first use, once."""

    shape_id: str
    category: str
    points_path: Path
    labels_path: Path

    @functools.cached_property
    def cloud(self):
        """The parsed files as read, with read-only arrays."""
        cloud = load_cloud(self.points_path, self.labels_path, self.category)
        cloud.points.flags.writeable = False
        cloud.labels.flags.writeable = False
        return cloud

    def labeled_cloud(self):
        """The parsed cloud centered and scaled to the unit ball."""
        return normalize(self.cloud)


@dataclass
class DatasetSplit:
    train: list
    val: list
    test: list

    def __post_init__(self):
        seen = {}
        for name in ("train", "val", "test"):
            for rec in getattr(self, name):
                key = str(rec.points_path)
                if key in seen and seen[key] != name:
                    raise DataError(
                        f"{key} appears in both {seen[key]} and {name} splits")
                seen[key] = name

    def records(self, split):
        if split not in ("train", "val", "test"):
            raise UsageError(f"unknown split {split!r}")
        return getattr(self, split)


def _read_manifest(path):
    """The shape ids of a split manifest; an id that is not one plain file
    name (it holds '/', or is '.' or '..') raises DataError naming the line."""
    if not path.exists():
        return []
    if not path.is_file():
        raise DataError(f"split manifest is not a file: {path}")
    ids = []
    for lineno, line in _numbered_lines(path):
        shape_id = line.strip()
        if "/" in shape_id or shape_id in (".", ".."):
            raise DataError(
                f"{path}:{lineno}: shape id is not a plain file name: "
                f"{shape_id!r}")
        ids.append(shape_id)
    return ids


def load_split(root, category):
    """Load the split manifests of one category, checking file existence."""
    root = Path(root)
    cat_dir = root / category
    if not cat_dir.is_dir():
        raise DataError(f"no such category directory: {cat_dir}")
    lists = {}
    for name in ("train", "val", "test"):
        records = []
        for shape_id in _read_manifest(cat_dir / f"{name}.txt"):
            pts = cat_dir / "points" / f"{shape_id}.pts"
            seg = cat_dir / "points_label" / f"{shape_id}.seg"
            for p in (pts, seg):
                if not p.is_file():
                    what = ("dataset path is not a file" if p.exists()
                            else "missing dataset file")
                    raise DataError(f"{what}: {p}")
            records.append(ShapeRecord(shape_id, category, pts, seg))
        lists[name] = records
    return DatasetSplit(lists["train"], lists["val"], lists["test"])


def write_synth_dataset(root, categories, count, seed, points_per_shape=2048,
                        val_count=0, test_count=0):
    """Generate and write a synthetic dataset tree; returns the root path."""
    root = Path(root)
    for category in categories:
        cat_dir = root / category
        (cat_dir / "points").mkdir(parents=True, exist_ok=True)
        (cat_dir / "points_label").mkdir(parents=True, exist_ok=True)
        total = count + val_count + test_count
        clouds = synth_generate(category, total, seed, points_per_shape)
        ids = [f"{category}_{i:04d}" for i in range(total)]
        for shape_id, cloud in zip(ids, clouds):
            save_cloud(cloud, cat_dir / "points" / f"{shape_id}.pts",
                       cat_dir / "points_label" / f"{shape_id}.seg")
        splits = {"train": ids[:count],
                  "val": ids[count:count + val_count],
                  "test": ids[count + val_count:]}
        for name, chunk in splits.items():
            with open(cat_dir / f"{name}.txt", "w") as fh:
                fh.writelines(s + "\n" for s in chunk)
    return root


def infer_num_parts(split):
    """Highest label across every split file, plus one."""
    records = split.train + split.val + split.test
    if not records:
        raise DataError("dataset lists no shapes; cannot infer the part count")
    return 1 + max(int(rec.cloud.labels.max()) for rec in records)
