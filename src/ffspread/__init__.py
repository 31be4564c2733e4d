"""Finite-field spreading multiple-access: encoding, channel simulation,
iterative multi-user decoding, and transfer-function / BER-slope analysis."""

from .analysis import (DEFAULT_GRID, ExitCurve, TunnelResult, ese_curve,
                       exit_ese, exit_ffdes_approx, exit_ffdes_exact,
                       ffdes_approx_curve, ffdes_exact_curve, tunnel_check,
                       write_curves_csv)
from .channel import ChannelParams, transmit
from .codec import (Interleaver, SpreadingVector, UserCodeSpec, encode_user,
                    make_interleaver, ones_spreading, permute, random_spreading,
                    spread_block)
from .decoder import LLR_MAX, DecodeResult, decode_frame, ffdes_block
from .gf import (BitMapper, FieldSpec, build_field, demap_bit, map_bits,
                 natural_mapper, random_mapper)
from .slope import (OracleResult, SlopeReport, g_closed_form, g_oracle,
                    predict_ber, slope_report, standard_slope,
                    standard_slope_exact)

__all__ = [
    "BitMapper", "ChannelParams", "DecodeResult", "DEFAULT_GRID", "ExitCurve",
    "FieldSpec", "Interleaver", "LLR_MAX", "OracleResult", "SlopeReport",
    "SpreadingVector", "TunnelResult", "UserCodeSpec", "build_field",
    "decode_frame", "demap_bit", "encode_user", "ese_curve", "exit_ese",
    "exit_ffdes_approx", "exit_ffdes_exact", "ffdes_approx_curve", "ffdes_block",
    "ffdes_exact_curve", "g_closed_form", "g_oracle", "make_interleaver",
    "map_bits", "natural_mapper", "ones_spreading", "permute", "predict_ber",
    "random_mapper", "random_spreading", "slope_report", "spread_block",
    "standard_slope", "standard_slope_exact", "transmit", "tunnel_check",
    "write_curves_csv",
]

__version__ = "0.1.0"
