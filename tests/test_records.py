"""The record classes' public behaviour: constructor signatures and defaults,
read-only fields where records are frozen, copies, validation errors,
equality and repr, and the config's key round trip."""

import copy
import inspect
import pickle

import numpy as np
import pytest

from fourier_contours import (
    AnnotatedImage,
    ChannelCountMismatch,
    Config,
    Contour,
    ContourSpans,
    Detection,
    EvalReport,
    FourierSignature,
    InvalidPolygon,
    LevelPrediction,
    LevelSpec,
    LevelTargets,
    LossBreakdown,
    MatchRecord,
    PredictionMaps,
    ResampledContour,
    ShapeMismatch,
    TargetMaps,
    TextInstance,
    apply_overrides,
)
from fourier_contours.targets import DEFAULT_LEVELS

SQUARE = [[0.0, 0.0], [4.0, 0.0], [4.0, 4.0], [0.0, 4.0]]
GRID = np.zeros((2, 3))


def _spec():
    return LevelSpec("P3", 8, 0.0, 0.4)


# class, its required arguments, and its defaulted parameters with the values
# they give; parameter order is required ones first, then the defaulted ones
RECORDS = {
    Contour: (lambda: [SQUARE], {}),
    ResampledContour: (lambda: [SQUARE], {}),
    ContourSpans: (lambda: [(0.0, 0.0, 1.0, 1.0), 4, 0, GRID, GRID, 0], {}),
    FourierSignature: (lambda: [[0j, 1 + 1j, 2j]], {}),
    TextInstance: (lambda: [Contour(SQUARE)], {"ignore": False, "id": ""}),
    AnnotatedImage: (lambda: ["a", 8, 6], {"instances": ()}),
    LevelSpec: (lambda: ["P3", 8, 0.0, 0.4], {}),
    LevelPrediction: (lambda: ["P3", 8, GRID, GRID, np.zeros((6, 2, 3))], {}),
    PredictionMaps: (lambda: ["a", 8, 6], {"levels": ()}),
    Detection: (lambda: [Contour(SQUARE), 0.5], {"level": ""}),
    MatchRecord: (lambda: [0, "t0", 0.5], {}),
    EvalReport: (lambda: [1.0, 1.0, 1.0, 1, 0, 0], {"matches": ()}),
    LossBreakdown: (lambda: [0.1, 0.2, 0.3, 1.0, 0.6], {}),
    LevelTargets: (lambda: [_spec(), GRID, GRID, np.zeros((6, 2, 3)), GRID, GRID], {}),
    TargetMaps: (lambda: ["a", 8, 6, 1, 400, 0.3, {}], {"skipped": []}),
    Config: (
        lambda: [],
        {
            "k": 5,
            "n": 400,
            "n_prime": 50,
            "lam": 1.0,
            "shrink_factor": 0.3,
            "levels": DEFAULT_LEVELS,
            "score_thresh": 0.3,
            "nms_iou": 0.1,
            "eval_iou": 0.5,
            "subset_threshold": 0.07,
            "iou_supersample": 4,
        },
    ),
}

SIGNATURES = {
    Contour: ["vertices"],
    ResampledContour: ["points"],
    ContourSpans: ["bbox", "supersample", "row0", "lo", "hi", "count"],
    FourierSignature: ["coeffs"],
    TextInstance: ["polygon", "ignore", "id"],
    AnnotatedImage: ["image_id", "width", "height", "instances"],
    LevelSpec: ["name", "stride", "low", "high"],
    LevelPrediction: ["name", "stride", "tr_prob", "tcr_prob", "regression"],
    PredictionMaps: ["image_id", "width", "height", "levels"],
    Detection: ["contour", "score", "level"],
    MatchRecord: ["det_index", "gt_id", "iou"],
    EvalReport: ["precision", "recall", "hmean", "tp", "fp", "fn", "matches"],
    LossBreakdown: ["l_tr", "l_tcr", "l_reg", "lam", "total"],
    LevelTargets: ["spec", "tr", "tcr", "regression", "weight", "care"],
    TargetMaps: ["image_id", "width", "height", "k", "n", "shrink_factor", "levels", "skipped"],
    Config: list(RECORDS[Config][1]),
}

# the records whose fields may be assigned after construction
MUTABLE = {PredictionMaps, LevelTargets, TargetMaps}

IDS = [cls.__name__ for cls in RECORDS]


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_constructor_signature_and_defaults(cls):
    required, defaults = RECORDS[cls]
    params = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in params] == SIGNATURES[cls]
    assert [p.name for p in params if p.default is not p.empty] == list(defaults)
    record, other = cls(*required()), cls(*required())
    for name, value in defaults.items():
        assert getattr(record, name) == value
        if isinstance(value, (dict, list)):  # a fresh container per record
            assert getattr(record, name) is not getattr(other, name)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_frozen_records_are_read_only(cls):
    record = cls(*RECORDS[cls][0]())
    name = SIGNATURES[cls][0]
    value = getattr(record, name)
    if cls in MUTABLE:
        setattr(record, name, value)
        assert getattr(record, name) is value
    else:
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_records_copy_and_pickle(cls):
    record = cls(*RECORDS[cls][0]())
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and repr(twin) == repr(record)
        assert twin == record
        if cls not in MUTABLE:
            assert hash(twin) == hash(record)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: LevelSpec("P3", 0, 0.0, 0.4), ValueError),
        (lambda: LevelSpec("P3", 8, 0.5, 0.4), ValueError),
        (lambda: LevelPrediction("P3", 8, GRID, np.zeros((3, 2)), np.zeros((6, 2, 3))), ShapeMismatch),
        (lambda: LevelPrediction("P3", 8, GRID, GRID, np.zeros((4, 2, 3))), ChannelCountMismatch),
        (lambda: FourierSignature([0j, 1j]), ChannelCountMismatch),
        (lambda: Contour([[0.0, 0.0], [1.0, 1.0]]), InvalidPolygon),
        (lambda: ResampledContour([[0.0, 0.0], [1.0, 1.0]]), InvalidPolygon),
        (lambda: AnnotatedImage("a", 0, 6), InvalidPolygon),
    ],
    ids=["stride-0", "empty-range", "shape", "channels", "even-signature", "contour-2", "resampled-2", "width-0"],
)
def test_validation_errors(build, error):
    with pytest.raises(error):
        build()


def test_validated_records_normalize_their_fields():
    assert AnnotatedImage("a", 8, 6, [TextInstance(Contour(SQUARE))]).instances.__class__ is tuple
    sig = FourierSignature([0, 1, 2])
    assert sig.coeffs.dtype == np.complex128 and not sig.coeffs.flags.writeable
    assert not Contour(SQUARE).vertices.flags.writeable
    assert LevelPrediction("P3", 8, GRID.astype(np.float32), GRID, np.zeros((6, 2, 3))).tr_prob.dtype == np.float64


def test_records_compare_and_print_by_value():
    assert _spec() == _spec() and hash(_spec()) == hash(_spec())
    assert _spec() != LevelSpec("P3", 16, 0.0, 0.4)
    assert Config() == Config() and Config(k=3) != Config()
    assert repr(_spec()) == "LevelSpec(name='P3', stride=8, low=0.0, high=0.4)"
    assert repr(MatchRecord(0, "t0", 0.5)) == "MatchRecord(det_index=0, gt_id='t0', iou=0.5)"


def test_records_holding_arrays_compare_and_hash_by_value():
    vertices = np.array(SQUARE)
    moved = vertices.copy()
    moved[2, 0] = 5.0  # one vertex differs
    assert Contour(vertices) == Contour(vertices.copy())
    assert hash(Contour(vertices)) == hash(Contour(vertices.copy()))
    assert Contour(vertices) != Contour(moved)
    image = AnnotatedImage("a", 8, 6, [TextInstance(Contour(vertices))])
    assert image == AnnotatedImage("a", 8, 6, [TextInstance(Contour(vertices.copy()))])
    assert image != AnnotatedImage("a", 8, 6, [TextInstance(Contour(moved))])
    # the same values in another dtype or shape are another record
    targets = LevelTargets(_spec(), GRID, GRID, np.zeros((6, 2, 3)), GRID, GRID)
    assert targets == LevelTargets(_spec(), GRID.copy(), GRID, np.zeros((6, 2, 3)), GRID, GRID)
    assert targets != LevelTargets(_spec(), GRID.astype(np.uint8), GRID, np.zeros((6, 2, 3)), GRID, GRID)
    assert targets != LevelTargets(_spec(), GRID.reshape(3, 2), GRID, np.zeros((6, 2, 3)), GRID, GRID)


def test_config_to_dict_round_trips_through_overrides():
    for cfg in (Config(), apply_overrides(Config(), ["k=3", "lambda=0.25", "levels=A:4:0:0.5,B:8:0.5:1"])):
        pairs = [f"{key}={value}" for key, value in cfg.to_dict().items()]
        assert apply_overrides(Config(), pairs) == cfg
