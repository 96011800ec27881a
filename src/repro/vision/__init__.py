"""Vision substrate: cameras, images, ORB features and matching."""

from .brief import (
    DESCRIPTOR_BITS,
    DESCRIPTOR_BYTES,
    compute_descriptor,
    hamming_distance_matrix,
    hamming_distance_matrix_lut,
    hamming_distance_pairs,
    perturb_descriptor,
    random_descriptor,
)
from .camera import PinholeCamera, StereoRig
from .fast import Keypoint, detect_fast_vectorized
from .image import Image, ImagePyramid
from .matching import (
    FrameGrid,
    Matches,
    match_descriptors,
    search_by_projection_vectorized,
)
from .orb import FeatureSet, OrbExtractor, OrbExtractorConfig
from .render import DescriptorBank, FeatureOracle, render_frame
from .stereo import StereoMatch, StereoMatcher, render_stereo_pair

__all__ = [
    "DESCRIPTOR_BITS",
    "DESCRIPTOR_BYTES",
    "DescriptorBank",
    "FeatureOracle",
    "FeatureSet",
    "FrameGrid",
    "Image",
    "ImagePyramid",
    "Keypoint",
    "Matches",
    "OrbExtractor",
    "OrbExtractorConfig",
    "PinholeCamera",
    "StereoMatch",
    "StereoMatcher",
    "StereoRig",
    "compute_descriptor",
    "detect_fast_vectorized",
    "hamming_distance_matrix",
    "hamming_distance_matrix_lut",
    "hamming_distance_pairs",
    "match_descriptors",
    "perturb_descriptor",
    "random_descriptor",
    "render_frame",
    "render_stereo_pair",
    "search_by_projection_vectorized",
]
