"""Crash-safe campaign execution: journal, supervised pool, runner.

Turns one-shot suite execution into a durable, resumable campaign:

* :mod:`repro.campaign.journal` -- the checksummed JSONL write-ahead
  journal (atomic fsync'd appends, torn-tail-tolerant replay);
* :mod:`repro.campaign.pool` -- the supervised worker pool (watchdog
  timeouts, heartbeat staleness, broken-pool recovery, retry budgets);
* :mod:`repro.campaign.runner` -- orchestration: plan a scenario
  directory into units, journal every transition, resume after a
  crash, degrade on deadline, and write the schema-versioned result
  store atomically;
* :mod:`repro.campaign.shard` / :mod:`repro.campaign.coordinator` --
  the sharded fabric: N shard fault domains (own journal, own pool,
  own fault injector) coordinated through work-stealing into the same
  deterministic result store.
"""

from repro.campaign.coordinator import (  # noqa: F401
    ShardedCampaignReport,
    ShardedCampaignRunner,
    campaign_status,
)
from repro.campaign.journal import (  # noqa: F401
    CampaignJournal,
    fold_records,
    fsck_journal,
    replay,
)
from repro.campaign.pool import PoolOutcome, SupervisedPool  # noqa: F401
from repro.campaign.runner import (  # noqa: F401
    CampaignReport,
    CampaignRunner,
    plan_units,
    store_digest,
    strip_wall_stamps,
)
from repro.campaign.shard import (  # noqa: F401
    Shard,
    shard_journal_path,
    shard_of,
)
