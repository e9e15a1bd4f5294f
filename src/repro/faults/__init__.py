"""Fault-injection study (paper §V future work, experiment E11)."""

from .campaign import (CampaignSummary, FaultOutcome, FaultResult,
                       run_campaign, run_fault, sample_faults)
from .models import (CodeBitFlip, CombinedFault, FaultSpec, FetchGlitch,
                     PCGlitch, RegisterFault, VerifySkip)

__all__ = [
    "FaultSpec", "CodeBitFlip", "FetchGlitch", "PCGlitch",
    "RegisterFault", "VerifySkip", "CombinedFault",
    "FaultOutcome", "FaultResult", "CampaignSummary",
    "run_fault", "run_campaign", "sample_faults",
]
