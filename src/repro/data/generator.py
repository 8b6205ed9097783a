"""Synthetic Twitter-world generator.

The paper's evaluation corpus is a 2011 crawl (139,180 users with 14.8
friends, 14.9 followers and 29.0 tweeted venues each, ~16% of the wider
crawl labeled) that cannot be redistributed.  This generator builds a
world from the same generative family the paper's model assumes, so
every mechanism MLP exploits -- power-law distance decay of following,
location-concentrated venue mentions, noisy celebrity follows, noisy
popular-venue mentions, users with multiple long-term locations -- is
present with known ground truth:

1. every user gets 1-3 true locations (population-biased) and a latent
   profile ``theta`` over them; the home is the argmax location;
2. following edges are a mixture: with probability ``noise_following``
   the friend is a global celebrity draw (the Lady Gaga edge); otherwise
   the edge draws assignments ``x ~ theta_i`` and
   ``y ~ P(y) ∝ mass(y) * d(x, y)**alpha`` and a friend who truly lives
   at ``y``;
3. venue mentions are a mixture: with probability ``noise_tweeting`` a
   popularity draw (the Honolulu tweet); otherwise ``z ~ theta_i`` and a
   venue from a per-location multinomial ``psi_z`` that concentrates on
   nearby venue names but keeps mass on far-but-popular ones
   (Fig. 3(b)'s shape);
4. a configurable fraction of users expose their true home as a
   registered location (the labeled set U*).

Everything is driven by one seeded ``numpy`` generator, so worlds are
exactly reproducible.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain

import numpy as np

from repro.data.columnar import ColumnarWorld, location_venue_map, register_world
from repro.data.model import Dataset, FollowingEdge, Tweet, TweetingEdge, User
from repro.geo.gazetteer import Gazetteer
from repro.geo.us_cities import builtin_gazetteer
from repro.mathx.distributions import sample_categorical


@dataclass(frozen=True, slots=True)
class SyntheticWorldConfig:
    """Knobs of the synthetic world.

    Defaults are scaled for laptop experiments (thousands of users);
    the statistical *shape* follows the paper's corpus (Sec. 5): mean
    friend count near 10-15, tens of venue mentions per user, a
    following-distance exponent near -0.55, and a majority-but-not-all
    single-location population.
    """

    n_users: int = 2000
    seed: int = 7
    #: Fraction of users whose true home is exposed as a registered label.
    labeled_fraction: float = 0.8
    #: P(number of true locations = 1, 2, 3).
    n_location_probs: tuple[float, float, float] = (0.50, 0.38, 0.12)
    #: Home cities are sampled with probability ∝ population ** this.
    population_temper: float = 0.6
    #: Dirichlet weight of the home vs each secondary location in theta.
    home_concentration: float = 3.0
    secondary_concentration: float = 1.6
    #: Mean out-degree (Poisson); the paper's corpus has 14.8.
    mean_friends: float = 10.0
    #: Mean venue mentions per user (Poisson); the paper's corpus has 29.
    mean_venues: float = 14.0
    #: Mixture weights of the random (noise) models.
    noise_following: float = 0.12
    noise_tweeting: float = 0.20
    #: Distance exponent of the *location-choice* step.  The induced
    #: pairwise P(edge | d) curve is shallower than this (city-mass
    #: weighting and the noise floor flatten it); -1.0 at the choice
    #: level lands the induced exponent in the -0.4..-0.6 band the
    #: paper reports for Twitter.
    alpha: float = -1.0
    #: Distance clamp in miles (paper buckets at 1 mile).
    min_distance_miles: float = 1.0
    #: Venue-kernel exponent: P(venue at d) ∝ (d + venue_d0) ** kappa.
    venue_kappa: float = -1.4
    venue_d0: float = 15.0
    #: Weight of the global-popularity term inside each psi_l.
    venue_popularity_mix: float = 0.06
    #: Zipf skew of the celebrity (noise-follow) target distribution.
    celebrity_zipf: float = 1.0
    #: Emit raw tweet texts alongside venue-id relationships.
    render_tweets: bool = False

    def __post_init__(self) -> None:
        if self.n_users < 2:
            raise ValueError("need at least two users")
        if not 0.0 <= self.labeled_fraction <= 1.0:
            raise ValueError("labeled_fraction must be in [0, 1]")
        if abs(sum(self.n_location_probs) - 1.0) > 1e-9:
            raise ValueError("n_location_probs must sum to 1")
        if not 0.0 <= self.noise_following < 1.0:
            raise ValueError("noise_following must be in [0, 1)")
        if not 0.0 <= self.noise_tweeting < 1.0:
            raise ValueError("noise_tweeting must be in [0, 1)")
        if self.alpha >= 0:
            raise ValueError("alpha must be negative (distance decay)")


_TWEET_TEMPLATES = (
    "good morning {venue}!",
    "can't wait to be back in {venue} this weekend",
    "traffic in {venue} is unreal today",
    "anyone else at the {venue} show tonight?",
    "missing {venue} so much right now",
    "just landed in {venue}",
    "beautiful day out here in {venue}",
    "thinking about moving to {venue} someday",
    "the food in {venue} never disappoints",
    "watching the game from {venue} with friends",
)


class _WorldBuilder:
    """Internal stateful builder; one instance per generate_world call."""

    def __init__(self, config: SyntheticWorldConfig, gazetteer: Gazetteer):
        self.config = config
        self.gazetteer = gazetteer
        self.rng = np.random.default_rng(config.seed)
        self.n_loc = len(gazetteer)
        self.distance = gazetteer.distance_matrix
        pops = gazetteer.populations
        self.home_weights = pops**config.population_temper
        self.venues = gazetteer.venue_vocabulary
        self.n_venues = len(self.venues)
        # Global popularity of each venue name = summed population of its
        # referent cities; this drives both TR noise and the popularity
        # term inside psi_l.
        self.venue_popularity = np.zeros(self.n_venues)
        for loc in gazetteer:
            vid = gazetteer.venue_index[loc.venue_name]
            self.venue_popularity[vid] += loc.population
        self.venue_popularity /= self.venue_popularity.sum()
        self._psi_cache: dict[int, np.ndarray] = {}
        self._friend_loc_cache: dict[int, np.ndarray] = {}

    # -- users ------------------------------------------------------------

    def sample_users(self) -> list[User]:
        """Draw the user population with homes and observed labels."""
        cfg = self.config
        users: list[User] = []
        n_loc_choices = self.rng.choice(
            [1, 2, 3], size=cfg.n_users, p=list(cfg.n_location_probs)
        )
        labeled_mask = self.rng.random(cfg.n_users) < cfg.labeled_fraction
        for uid in range(cfg.n_users):
            k = int(n_loc_choices[uid])
            locs = self._sample_distinct_locations(k)
            conc = np.array(
                [cfg.home_concentration]
                + [cfg.secondary_concentration] * (k - 1)
            )
            weights = self.rng.dirichlet(conc)
            order = np.argsort(-weights)
            locs = [locs[i] for i in order]
            weights = weights[order]
            home = locs[0]
            users.append(
                User(
                    user_id=uid,
                    registered_location=home if labeled_mask[uid] else None,
                    true_home=home,
                    true_locations=tuple(locs),
                    true_profile_weights=tuple(float(w) for w in weights),
                )
            )
        return users

    def _sample_distinct_locations(self, k: int) -> list[int]:
        chosen: list[int] = []
        weights = self.home_weights.copy()
        for _ in range(k):
            loc = sample_categorical(self.rng, weights)
            chosen.append(loc)
            weights[loc] = 0.0
        return chosen

    # -- profile-driven structures -------------------------------------------

    def build_location_mass(self, users: list[User]) -> np.ndarray:
        """``mass[l]`` = summed theta weight of users truly at ``l``."""
        mass = np.zeros(self.n_loc)
        for u in users:
            for loc, w in zip(u.true_locations, u.true_profile_weights):
                mass[loc] += w
        return mass

    def build_residents(
        self, users: list[User]
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per location: array of resident user ids and theta weights."""
        residents: list[list[int]] = [[] for _ in range(self.n_loc)]
        weights: list[list[float]] = [[] for _ in range(self.n_loc)]
        for u in users:
            for loc, w in zip(u.true_locations, u.true_profile_weights):
                residents[loc].append(u.user_id)
                weights[loc].append(w)
        return (
            [np.array(r, dtype=np.int64) for r in residents],
            [np.array(w, dtype=np.float64) for w in weights],
        )

    # -- following edges ----------------------------------------------------

    def friend_location_weights(
        self, x: int, mass: np.ndarray
    ) -> np.ndarray:
        """``P(y | x) ∝ mass(y) * d(x, y)**alpha`` (cached per x)."""
        cached = self._friend_loc_cache.get(x)
        if cached is None:
            cfg = self.config
            d = np.maximum(self.distance[x], cfg.min_distance_miles)
            cached = mass * d**cfg.alpha
            self._friend_loc_cache[x] = cached
        return cached

    def sample_following(
        self, users: list[User]
    ) -> list[FollowingEdge]:
        """Draw following edges (distance law + celebrity mix)."""
        cfg = self.config
        mass = self.build_location_mass(users)
        residents, res_weights = self.build_residents(users)
        # Celebrity weights: a random permutation of Zipf ranks, so the
        # most-followed "celebrities" are arbitrary users, not id 0.
        ranks = self.rng.permutation(cfg.n_users) + 1
        celebrity_weights = 1.0 / ranks.astype(np.float64) ** cfg.celebrity_zipf
        edges: list[FollowingEdge] = []
        seen: set[tuple[int, int]] = set()
        out_degrees = np.maximum(
            1, self.rng.poisson(cfg.mean_friends, size=cfg.n_users)
        )
        theta_lookup = [
            np.array(u.true_profile_weights, dtype=np.float64) for u in users
        ]
        for uid in range(cfg.n_users):
            user = users[uid]
            for _ in range(int(out_degrees[uid])):
                edge = self._sample_one_edge(
                    user,
                    theta_lookup[uid],
                    mass,
                    residents,
                    res_weights,
                    celebrity_weights,
                    seen,
                )
                if edge is not None:
                    edges.append(edge)
                    seen.add((edge.follower, edge.friend))
        return edges

    def _sample_one_edge(
        self,
        user: User,
        theta: np.ndarray,
        mass: np.ndarray,
        residents: list[np.ndarray],
        res_weights: list[np.ndarray],
        celebrity_weights: np.ndarray,
        seen: set[tuple[int, int]],
    ) -> FollowingEdge | None:
        cfg = self.config
        for _attempt in range(8):
            if self.rng.random() < cfg.noise_following:
                friend = sample_categorical(self.rng, celebrity_weights)
                if friend == user.user_id or (user.user_id, friend) in seen:
                    continue
                return FollowingEdge(
                    follower=user.user_id,
                    friend=friend,
                    true_x=None,
                    true_y=None,
                    is_noise=True,
                )
            x = user.true_locations[sample_categorical(self.rng, theta)]
            y = sample_categorical(
                self.rng, self.friend_location_weights(x, mass)
            )
            if residents[y].size == 0:
                continue
            pick = sample_categorical(self.rng, res_weights[y])
            friend = int(residents[y][pick])
            if friend == user.user_id or (user.user_id, friend) in seen:
                continue
            return FollowingEdge(
                follower=user.user_id,
                friend=friend,
                true_x=x,
                true_y=y,
                is_noise=False,
            )
        return None

    # -- tweeting edges ----------------------------------------------------

    def psi(self, location_id: int) -> np.ndarray:
        """The per-location venue multinomial ``psi_l``.

        Local term: each referent city of a venue contributes
        ``pop * (d + d0)**kappa`` mass, so nearby names dominate but the
        decay is gentle.  A small global-popularity mixture keeps
        far-but-famous venues plausible (Fig. 3(b): "hollywood" from
        Austin).
        """
        cached = self._psi_cache.get(location_id)
        if cached is not None:
            return cached
        cfg = self.config
        local = np.zeros(self.n_venues)
        d_row = self.distance[location_id]
        for loc in self.gazetteer:
            vid = self.gazetteer.venue_index[loc.venue_name]
            kernel = (d_row[loc.location_id] + cfg.venue_d0) ** cfg.venue_kappa
            local[vid] += loc.population * kernel
        local /= local.sum()
        psi = (
            (1.0 - cfg.venue_popularity_mix) * local
            + cfg.venue_popularity_mix * self.venue_popularity
        )
        psi /= psi.sum()
        self._psi_cache[location_id] = psi
        return psi

    def sample_tweeting(self, users: list[User]) -> list[TweetingEdge]:
        """Draw venue mentions from each user's location mix."""
        cfg = self.config
        edges: list[TweetingEdge] = []
        counts = np.maximum(1, self.rng.poisson(cfg.mean_venues, size=cfg.n_users))
        for uid in range(cfg.n_users):
            user = users[uid]
            theta = np.array(user.true_profile_weights)
            for _ in range(int(counts[uid])):
                if self.rng.random() < cfg.noise_tweeting:
                    venue = sample_categorical(self.rng, self.venue_popularity)
                    edges.append(
                        TweetingEdge(
                            user=uid, venue_id=venue, true_z=None, is_noise=True
                        )
                    )
                else:
                    z = user.true_locations[sample_categorical(self.rng, theta)]
                    venue = sample_categorical(self.rng, self.psi(z))
                    edges.append(
                        TweetingEdge(
                            user=uid, venue_id=venue, true_z=z, is_noise=False
                        )
                    )
        return edges

    def render_tweets(self, tweeting: list[TweetingEdge]) -> list[Tweet]:
        """Render tweet text containing each mentioned venue's name."""
        texts: list[Tweet] = []
        for t in tweeting:
            template = _TWEET_TEMPLATES[
                int(self.rng.integers(len(_TWEET_TEMPLATES)))
            ]
            texts.append(
                Tweet(user=t.user, text=template.format(venue=self.venues[t.venue_id]))
            )
        return texts


def generate_world(
    config: SyntheticWorldConfig | None = None,
    gazetteer: Gazetteer | None = None,
    shards: int | None = None,
) -> Dataset:
    """Generate a synthetic profiling problem with full ground truth.

    With ``shards=None`` (the default) this is the reference object-graph
    generator, bit-reproducible against all earlier versions.  With
    ``shards=N`` the world is produced by the sharded columnar builder
    (:func:`generate_columnar_world`'s engine): users and relationships
    are sampled shard by shard as flat arrays, the compiled
    :class:`~repro.data.columnar.ColumnarWorld` is registered on the
    returned dataset (so the first fit re-indexes nothing), and the
    object graph is materialized exactly once at the end.  Sharded
    worlds come from the same generative family but a different RNG
    stream: reproducible given ``(seed, shards)``, not comparable
    draw-for-draw with the unsharded stream.

    >>> ds = generate_world(SyntheticWorldConfig(n_users=50, seed=1))
    >>> ds.n_users
    50
    >>> ds.has_ground_truth
    True
    """
    config = config or SyntheticWorldConfig()
    gazetteer = gazetteer or builtin_gazetteer()
    if shards is not None:
        return _sharded_dataset(config, gazetteer, shards)
    builder = _WorldBuilder(config, gazetteer)
    users = builder.sample_users()
    following = builder.sample_following(users)
    tweeting = builder.sample_tweeting(users)
    tweets = builder.render_tweets(tweeting) if config.render_tweets else []
    return Dataset(gazetteer, users, following, tweeting, tweets)


# -- the sharded columnar path ---------------------------------------------


def _shard_rng(seed: int, phase: int, shard: int) -> np.random.Generator:
    """Independent, reproducible stream per (phase, shard)."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(phase, shard))
    )


#: Uniforms are drawn from a shard's generator this many at a time.
#: Only one block is alive at once, so the Python-side buffer stays
#: bounded however large the shard is.
_UNIFORM_BLOCK = 4096


def _uniform_stream(rng: np.random.Generator):
    """Return a callable yielding ``rng``'s uniforms one by one.

    The doubles come from ``rng.random(_UNIFORM_BLOCK)`` blocks through
    a cursor.  ``Generator.random(a)`` then ``random(b)`` produce the
    same doubles as one ``random(a + b)`` and as ``a + b`` scalar
    ``random()`` calls, so taking values one at a time from this stream
    reproduces any sequence of per-draw ``random(n)`` calls exactly.
    Values left in the last block are simply never read.
    """
    blocks = iter(lambda: rng.random(_UNIFORM_BLOCK).tolist(), None)
    return chain.from_iterable(blocks).__next__


def _cat(parts: list[np.ndarray], dtype) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)


def _cat64(parts: list[np.ndarray]) -> np.ndarray:
    """Concatenate compact per-shard buffers, upcasting to ``int64``.

    The shard loops accumulate ``int32`` buffers (one per shard, not one
    per user) to keep intermediate memory at half width; the public
    arrays stay ``int64`` -- the dtype every downstream consumer
    (``from_edge_arrays``, persisted world arrays, hashing) expects.
    """
    if not parts:
        return np.empty(0, dtype=np.int64)
    out = np.empty(sum(p.size for p in parts), dtype=np.int64)
    pos = 0
    for p in parts:
        out[pos:pos + p.size] = p
        pos += p.size
    return out


class _ShardedArrays:
    """Array-native generator state: one instance per sharded build.

    Samples the same generative family as :class:`_WorldBuilder` but
    emits flat ``numpy`` arrays shard by shard -- no ``User`` /
    ``FollowingEdge`` / ``TweetingEdge`` objects, no per-draw Python
    categorical sampling over ``n_users``-sized weight vectors.  Two
    documented simplifications versus the object path keep it
    vectorizable: self-follows and duplicate edges are *dropped*
    instead of re-drawn (the object path retries up to 8 times), and
    the RNG streams are per ``(phase, shard)`` so a world is
    reproducible given ``(seed, shards)``.

    The edge phases make no numpy call per draw.  After each shard's
    degree draw, every uniform comes from :func:`_uniform_stream`, a
    cursor over fixed-size ``rng.random(_UNIFORM_BLOCK)`` blocks, and
    every categorical draw is ``min(bisect_right(cdf, u * cdf[-1]),
    n - 1)`` in plain Python.  The per-location CDFs are cached as
    ``array("d")`` copies of the numpy ``cumsum`` (compact doubles,
    smaller than the numpy rows; Python lists of them would add ~15 MB
    of peak memory), the user-sized ones are read through memoryviews
    of their numpy arrays.  Either way items arrive as Python floats
    with the same bits.  Worlds are bit-identical to per-draw
    ``rng.random(n)`` + ``np.searchsorted(side="right")`` + ``.clip``
    calls: consecutive ``random`` calls split a stream anywhere without
    changing its doubles, ``bisect_right`` counts the same ``<=``
    entries as ``searchsorted(side="right")``, the products and CDF
    sums are the same IEEE-754 operations in the same order, and the
    per-user consumption order is fixed (see :meth:`sample_following`
    and :meth:`sample_tweeting`).  Reading past a shard's last draw is
    harmless: each ``(phase, shard)`` generator is dropped after its
    loop.  ``tests/reference_generator.py`` holds the per-draw form.
    """

    def __init__(
        self, config: SyntheticWorldConfig, gazetteer: Gazetteer, shards: int
    ):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.config = config
        self.gazetteer = gazetteer
        self.shards = shards
        self.n_loc = len(gazetteer)
        self.distance = gazetteer.distance_matrix
        pops = gazetteer.populations
        home_weights = pops**config.population_temper
        self.home_probs = home_weights / home_weights.sum()
        self.venues = gazetteer.venue_vocabulary
        self.n_venues = len(self.venues)
        # location id -> venue id of its own name, and per-venue summed
        # population (the TR popularity model, as in _WorldBuilder).
        self.loc_venue = location_venue_map(gazetteer)
        venue_popularity = np.bincount(
            self.loc_venue, weights=pops, minlength=self.n_venues
        )
        self.venue_popularity = venue_popularity / venue_popularity.sum()
        self.venue_pop_cdf = array("d", np.cumsum(self.venue_popularity).tolist())
        self._psi_cdf_cache: dict[int, array] = {}
        self._friend_cdf_cache: dict[int, array] = {}
        bounds = [
            (s * config.n_users) // shards for s in range(shards + 1)
        ]
        self.shard_bounds = list(zip(bounds[:-1], bounds[1:]))

        # -- user table (filled by sample_users) -----------------------
        n = config.n_users
        self.true_home = np.empty(n, dtype=np.int64)
        self.registered = np.full(n, -1, dtype=np.int64)
        self.loc_indptr = np.zeros(n + 1, dtype=np.int64)
        self.loc_flat: list[np.ndarray] = []
        self.weight_flat: list[np.ndarray] = []

    # -- phase 1: users ----------------------------------------------------

    def sample_users(self) -> None:
        """Phase 1: draw users shard by shard into columnar arrays."""
        cfg = self.config
        probs = np.array(cfg.n_location_probs)
        count_parts: list[np.ndarray] = []
        for shard, (lo, hi) in enumerate(self.shard_bounds):
            rng = _shard_rng(cfg.seed, 1, shard)
            m = hi - lo
            if m == 0:
                continue
            k_locs = rng.choice(np.array([1, 2, 3]), size=m, p=probs)
            labeled = rng.random(m) < cfg.labeled_fraction
            # One shard-sized buffer instead of one tiny array per user:
            # the location count of every user is already drawn, so the
            # shard's slot total is known up front.
            cap = int(k_locs.sum())
            loc_buf = np.empty(cap, dtype=np.int32)
            weight_buf = np.empty(cap, dtype=np.float64)
            write = 0
            for local in range(m):
                uid = lo + local
                k = int(k_locs[local])
                locs = rng.choice(
                    self.n_loc, size=k, replace=False, p=self.home_probs
                )
                conc = np.array(
                    [cfg.home_concentration]
                    + [cfg.secondary_concentration] * (k - 1)
                )
                weights = rng.dirichlet(conc)
                order = np.argsort(-weights)
                locs = locs[order]
                weights = weights[order]
                home = int(locs[0])
                self.true_home[uid] = home
                if labeled[local]:
                    self.registered[uid] = home
                loc_buf[write:write + k] = locs
                weight_buf[write:write + k] = weights
                write += k
            self.loc_flat.append(loc_buf)
            self.weight_flat.append(weight_buf)
            count_parts.append(k_locs.astype(np.int64))
        np.cumsum(_cat64(count_parts), out=self.loc_indptr[1:])
        self.loc_flat_arr = _cat64(self.loc_flat)
        self.weight_flat_arr = (
            np.concatenate(self.weight_flat)
            if self.weight_flat
            else np.empty(0, dtype=np.float64)
        )
        # Per-user theta CDFs live implicitly in weight_flat_arr (the
        # slices are short); residents/mass are global aggregates.
        self.mass = np.bincount(
            self.loc_flat_arr, weights=self.weight_flat_arr, minlength=self.n_loc
        )
        owner = np.repeat(
            np.arange(self.config.n_users, dtype=np.int64),
            np.diff(self.loc_indptr),
        )
        order = np.argsort(self.loc_flat_arr, kind="stable")
        res_counts = np.bincount(self.loc_flat_arr, minlength=self.n_loc)
        self.res_indptr = np.zeros(self.n_loc + 1, dtype=np.int64)
        np.cumsum(res_counts, out=self.res_indptr[1:])
        self.res_users = owner[order]
        res_weights = self.weight_flat_arr[order]
        # Per-location cumulative resident weights (reset at indptr) for
        # O(log) friend picks.
        self.res_cdf = np.copy(res_weights)
        np.cumsum(self.res_cdf, out=self.res_cdf)
        base = np.zeros(self.n_loc, dtype=np.float64)
        nonempty = self.res_indptr[:-1] < self.res_indptr[1:]
        base[nonempty] = self.res_cdf[self.res_indptr[:-1][nonempty]] - res_weights[
            self.res_indptr[:-1][nonempty]
        ]
        self.res_base = base
        # Views the edge phases read item by item (as Python numbers)
        # for the per-user theta draws.
        self._indptr_view = memoryview(self.loc_indptr)
        self._loc_view = memoryview(self.loc_flat_arr)
        self._weight_view = memoryview(self.weight_flat_arr)

    def _user_locs(self, uid: int) -> np.ndarray:
        return self.loc_flat_arr[self.loc_indptr[uid]:self.loc_indptr[uid + 1]]

    def _theta_draws(self, uid: int, count: int, uniform) -> list[int]:
        """``count`` location draws from user ``uid``'s theta, in order.

        The CDF is the running sum of the user's weights, the values
        ``np.cumsum`` gives; the whole list is drawn before it returns.
        """
        a, b = self._indptr_view[uid], self._indptr_view[uid + 1]
        cdf = list(accumulate(self._weight_view[a:b]))
        total, last = cdf[-1], b - a - 1
        locs = self._loc_view
        return [
            locs[a + min(bisect_right(cdf, uniform() * total), last)]
            for _ in range(count)
        ]

    def _friend_cdf(self, x: int) -> array:
        cached = self._friend_cdf_cache.get(x)
        if cached is None:
            cfg = self.config
            d = np.maximum(self.distance[x], cfg.min_distance_miles)
            cached = array("d", np.cumsum(self.mass * d**cfg.alpha).tolist())
            self._friend_cdf_cache[x] = cached
        return cached

    # -- phase 2: following edges ------------------------------------------

    def sample_following(self):
        """Phase 2: draw following edges shard by shard.

        Per user, the shard's uniforms go to: ``k`` noise flags, the
        celebrity draws in edge order, the x draws of the remaining
        edges, then per remaining edge one y draw plus a resident pick
        when y has residents.
        """
        cfg = self.config
        rng_celeb = _shard_rng(cfg.seed, 4, 0)
        ranks = rng_celeb.permutation(cfg.n_users) + 1
        celeb = memoryview(
            np.cumsum(1.0 / ranks.astype(np.float64) ** cfg.celebrity_zipf)
        )
        celeb_total, celeb_last = celeb[-1], len(celeb) - 1
        res_indptr = memoryview(self.res_indptr)
        res_cdf = memoryview(self.res_cdf)
        res_base = memoryview(self.res_base)
        res_users = memoryview(self.res_users)
        friend_cdf = self._friend_cdf
        p_noise = cfg.noise_following
        last_loc = self.n_loc - 1
        src_parts: list[np.ndarray] = []
        dst_parts: list[np.ndarray] = []
        x_parts: list[np.ndarray] = []
        y_parts: list[np.ndarray] = []
        noise_parts: list[np.ndarray] = []
        for shard, (lo, hi) in enumerate(self.shard_bounds):
            rng = _shard_rng(cfg.seed, 2, shard)
            m = hi - lo
            if m == 0:
                continue
            degrees = np.maximum(1, rng.poisson(cfg.mean_friends, size=m))
            uniform = _uniform_stream(rng)
            # Shard-sized int32 buffers (the out-degree total bounds the
            # edge count before dedup) instead of five tiny int64 arrays
            # per user -- the intermediate that used to dominate peak
            # RSS at 500k+ users.
            cap = int(degrees.sum())
            src_buf = np.empty(cap, dtype=np.int32)
            dst_buf = np.empty(cap, dtype=np.int32)
            x_buf = np.empty(cap, dtype=np.int32)
            y_buf = np.empty(cap, dtype=np.int32)
            noise_buf = np.empty(cap, dtype=np.bool_)
            write = 0
            for uid, k in enumerate(degrees.tolist(), lo):
                noisy = [uniform() < p_noise for _ in range(k)]
                # A location edge keeps ``uid`` as its friend when y has
                # no resident: the self-follow filter below drops it
                # (the object path retries instead).
                friends = [
                    min(bisect_right(celeb, uniform() * celeb_total), celeb_last)
                    if flag
                    else uid
                    for flag in noisy
                ]
                xs = [-1] * k
                ys = [-1] * k
                rest = [e for e, flag in enumerate(noisy) if not flag]
                if rest:
                    # Every x is drawn before the first y.
                    xdraws = self._theta_draws(uid, len(rest), uniform)
                    for e, x in zip(rest, xdraws):
                        xs[e] = x
                        cdf = friend_cdf(x)
                        y = min(bisect_right(cdf, uniform() * cdf[-1]), last_loc)
                        s, t = res_indptr[y], res_indptr[y + 1]
                        if s == t:
                            continue
                        # res_cdf carries the running global cumsum, so
                        # draw in (base, base + local_total] directly.
                        base = res_base[y]
                        u = base + uniform() * (res_cdf[t - 1] - base)
                        ys[e] = y
                        friends[e] = res_users[
                            min(bisect_right(res_cdf, u, s, t), t - 1)
                        ]
                # Drop self-follows and duplicate pairs (keep first).
                seen = {uid}
                keep = []
                for e, friend in enumerate(friends):
                    if friend not in seen:
                        seen.add(friend)
                        keep.append(e)
                end = write + len(keep)
                src_buf[write:end] = uid
                dst_buf[write:end] = [friends[e] for e in keep]
                x_buf[write:end] = [xs[e] for e in keep]
                y_buf[write:end] = [ys[e] for e in keep]
                noise_buf[write:end] = [noisy[e] for e in keep]
                write = end
            src_parts.append(src_buf[:write].copy())
            dst_parts.append(dst_buf[:write].copy())
            x_parts.append(x_buf[:write].copy())
            y_parts.append(y_buf[:write].copy())
            noise_parts.append(noise_buf[:write].copy())
        return (
            _cat64(src_parts),
            _cat64(dst_parts),
            _cat64(x_parts),
            _cat64(y_parts),
            _cat(noise_parts, np.bool_),
        )

    # -- phase 3: venue mentions -------------------------------------------

    def _psi_cdf(self, location_id: int) -> array:
        cached = self._psi_cdf_cache.get(location_id)
        if cached is None:
            cfg = self.config
            d_row = self.distance[location_id]
            kernel = (d_row + cfg.venue_d0) ** cfg.venue_kappa
            local = np.bincount(
                self.loc_venue,
                weights=self.gazetteer.populations * kernel,
                minlength=self.n_venues,
            )
            local /= local.sum()
            psi = (
                (1.0 - cfg.venue_popularity_mix) * local
                + cfg.venue_popularity_mix * self.venue_popularity
            )
            cached = array("d", np.cumsum(psi / psi.sum()).tolist())
            self._psi_cdf_cache[location_id] = cached
        return cached

    def sample_tweeting(self):
        """Phase 3: draw venue mentions shard by shard.

        Per user, the shard's uniforms go to: ``k`` noise flags, the
        venue-popularity draws in edge order, the z draws of the
        remaining mentions, then one psi draw per remaining mention.
        """
        cfg = self.config
        pop_cdf = self.venue_pop_cdf
        pop_total = pop_cdf[-1]
        psi_cdf = self._psi_cdf
        p_noise = cfg.noise_tweeting
        last_venue = self.n_venues - 1
        user_parts: list[np.ndarray] = []
        venue_parts: list[np.ndarray] = []
        z_parts: list[np.ndarray] = []
        noise_parts: list[np.ndarray] = []
        for shard, (lo, hi) in enumerate(self.shard_bounds):
            rng = _shard_rng(cfg.seed, 3, shard)
            m = hi - lo
            if m == 0:
                continue
            counts = np.maximum(1, rng.poisson(cfg.mean_venues, size=m))
            uniform = _uniform_stream(rng)
            # Shard-sized int32 buffers; the mention total is exact (no
            # dedup in this phase), so the buffers fill completely.
            cap = int(counts.sum())
            user_buf = np.empty(cap, dtype=np.int32)
            venue_buf = np.empty(cap, dtype=np.int32)
            z_buf = np.empty(cap, dtype=np.int32)
            noise_buf = np.empty(cap, dtype=np.bool_)
            write = 0
            for uid, k in enumerate(counts.tolist(), lo):
                noisy = [uniform() < p_noise for _ in range(k)]
                venues = [
                    min(bisect_right(pop_cdf, uniform() * pop_total), last_venue)
                    if flag
                    else -1
                    for flag in noisy
                ]
                zs = [-1] * k
                rest = [e for e, flag in enumerate(noisy) if not flag]
                if rest:
                    # Every z is drawn before the first psi draw.
                    zdraws = self._theta_draws(uid, len(rest), uniform)
                    for e, z in zip(rest, zdraws):
                        zs[e] = z
                        cdf = psi_cdf(z)
                        venues[e] = min(
                            bisect_right(cdf, uniform() * cdf[-1]), last_venue
                        )
                end = write + k
                user_buf[write:end] = uid
                venue_buf[write:end] = venues
                z_buf[write:end] = zs
                noise_buf[write:end] = noisy
                write = end
            user_parts.append(user_buf)
            venue_parts.append(venue_buf)
            z_parts.append(z_buf)
            noise_parts.append(noise_buf)
        return (
            _cat64(user_parts),
            _cat64(venue_parts),
            _cat64(z_parts),
            _cat(noise_parts, np.bool_),
        )


def _sharded_arrays(
    config: SyntheticWorldConfig, gazetteer: Gazetteer, shards: int
) -> tuple[_ShardedArrays, tuple, tuple]:
    builder = _ShardedArrays(config, gazetteer, shards)
    builder.sample_users()
    following = builder.sample_following()
    tweeting = builder.sample_tweeting()
    return builder, following, tweeting


def generate_columnar_world(
    config: SyntheticWorldConfig | None = None,
    gazetteer: Gazetteer | None = None,
    shards: int = 4,
) -> ColumnarWorld:
    """Generate a large synthetic world directly in compiled form.

    The zero-object scale path: users and relationships are sampled
    shard by shard as flat arrays and compiled straight into a
    :class:`~repro.data.columnar.ColumnarWorld` -- the full object
    graph is **never** materialized (generator ground truth is not
    retained; use :func:`generate_world` with ``shards=`` when
    evaluation against true homes is needed).  Deterministic given
    ``(config.seed, shards)``.
    """
    config = config or SyntheticWorldConfig()
    gazetteer = gazetteer or builtin_gazetteer()
    builder, following, tweeting = _sharded_arrays(config, gazetteer, shards)
    edge_src, edge_dst = following[0], following[1]
    tweet_user, tweet_venue = tweeting[0], tweeting[1]
    return ColumnarWorld.from_edge_arrays(
        gazetteer,
        observed_location=builder.registered,
        edge_src=edge_src,
        edge_dst=edge_dst,
        tweet_user=tweet_user,
        tweet_venue=tweet_venue,
    )


def _sharded_dataset(
    config: SyntheticWorldConfig, gazetteer: Gazetteer, shards: int
) -> Dataset:
    """Sharded generation, materialized once into the object graph.

    Ground truth is preserved (true homes, location sets, per-edge
    assignments and noise flags); the compiled world is built from the
    same arrays and registered on the dataset so the first fit or
    serving predictor re-indexes nothing.
    """
    builder, following, tweeting = _sharded_arrays(config, gazetteer, shards)
    edge_src, edge_dst, edge_x, edge_y, edge_noise = following
    tw_user, tw_venue, tw_z, tw_noise = tweeting

    users = []
    for uid in range(config.n_users):
        registered = int(builder.registered[uid])
        locs = builder._user_locs(uid)
        weights = builder.weight_flat_arr[
            builder.loc_indptr[uid]:builder.loc_indptr[uid + 1]
        ]
        users.append(
            User(
                user_id=uid,
                registered_location=registered if registered >= 0 else None,
                true_home=int(builder.true_home[uid]),
                true_locations=tuple(int(l) for l in locs),
                true_profile_weights=tuple(float(w) for w in weights),
            )
        )
    following_edges = [
        FollowingEdge(
            follower=s,
            friend=d,
            true_x=None if noise else x,
            true_y=None if noise else y,
            is_noise=noise,
        )
        for s, d, x, y, noise in zip(
            edge_src.tolist(),
            edge_dst.tolist(),
            edge_x.tolist(),
            edge_y.tolist(),
            edge_noise.tolist(),
        )
    ]
    tweeting_edges = [
        TweetingEdge(
            user=u,
            venue_id=v,
            true_z=None if noise else z,
            is_noise=noise,
        )
        for u, v, z, noise in zip(
            tw_user.tolist(),
            tw_venue.tolist(),
            tw_z.tolist(),
            tw_noise.tolist(),
        )
    ]
    tweets: list[Tweet] = []
    if config.render_tweets:
        rng = _shard_rng(config.seed, 5, 0)
        venues = gazetteer.venue_vocabulary
        for u, v in zip(tw_user.tolist(), tw_venue.tolist()):
            template = _TWEET_TEMPLATES[
                int(rng.integers(len(_TWEET_TEMPLATES)))
            ]
            tweets.append(Tweet(user=u, text=template.format(venue=venues[v])))
    dataset = Dataset(gazetteer, users, following_edges, tweeting_edges, tweets)
    world = ColumnarWorld.from_edge_arrays(
        gazetteer,
        observed_location=builder.registered,
        edge_src=edge_src,
        edge_dst=edge_dst,
        tweet_user=tw_user,
        tweet_venue=tw_venue,
    )
    register_world(dataset, world)
    return dataset
