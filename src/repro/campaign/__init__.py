"""Campaign planning: multi-item budgeted TIM via k-submodular allocation.

Beyond the paper's one-query-at-a-time model: allocate a global seed
budget across *B* campaign items at once (each node seeds at most one
item), using the RIS sketches of :mod:`repro.im.imm` as the value
oracle.  See ``docs/CAMPAIGNS.md``.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.campaign.planner": (
            "CampaignAllocation",
            "CampaignItem",
            "CampaignPlanner",
        ),
    },
)
