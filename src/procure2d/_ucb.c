/* The random streams and the 2D-UCB allocation rule of procure2d: first
 * numpy's PCG64 arithmetic, the one drawer of reward outcomes and the
 * counter of drawn outcomes that the explore-then-commit baselines read
 * (count_rows), then the only UCB round loop, which draws a table's
 * outcomes when it first reads them, and at the end of the file numpy's
 * stream seeding (SeedSequence's hash, then PCG64's seeding step) and the
 * self-resampling law on the seeded streams.
 *
 * _native.py compiles this file on first use with -ffp-contract=off, so that
 * no multiply and add are fused and every score is rounded as Python's float
 * arithmetic rounds it.  The bonus widths sqrt(c ln t) and the table of
 * 1 / sqrt(count) (entry 0 is 0.0) come from the caller, which builds them
 * with math.log and math.sqrt, so the scores carry the same bits as those of
 * the reference loop in tests/oracles.py.
 *
 * ucb_run, the loop's one entry, runs stacked auctions one at a time, and
 * the scan of a round takes a new best through a conditional jump.  In a
 * long auction the same leader wins almost every round, so the CPU predicts
 * the scan's outcome and starts the next round's table load and divide
 * before the compares resolve.  Replaying the 100 auctions of a
 * run_experiment over the ten default budgets with 10 realizations (5.05M
 * rounds, 2-core Xeon, gcc 12), the jump took 0.041-0.042 s against
 * 0.140-0.146 s when conditional moves kept the best (maxsd/cmova), with the
 * same outcomes.  The audits' short auctions (3 agents, 30 to 50 rounds)
 * keep their leader long enough too: on the batches of procure2d verify the
 * jump was as fast as conditional moves on blocks of four auctions advanced
 * together (the README's Performance section has the figures).
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* numpy's PCG64 streams.  A stream is four state words: the 128-bit state,
 * high word first, then the 128-bit increment.  numpy's PCG64 advances the
 * state by state * M + inc and outputs rotr64(hi ^ lo, hi >> 58) of the new
 * state; Generator.random() maps an output x to (x >> 11) * 2**-53 and
 * leaves PCG64's buffered 32-bit half-word alone.  So the functions of this
 * file draw exactly the uniforms numpy would, and a state written back
 * continues the stream where numpy would.
 */
typedef unsigned __int128 u128;

/* Multiplier M.  The 128-bit arithmetic is the compiler's unsigned __int128
 * (gcc and clang on 64-bit targets); a compiler without it fails the build.
 * On a 2-core Xeon host (gcc 12) draw_row takes about 2.3 ns per outcome,
 * against 3.0-3.3 ns on 64-bit halves with explicit carries and 2.5 ns for
 * numpy's random(out=) plus less. */
static const u128 PCG64_MULT = (u128)0x2360ED051FC65DA4ULL << 64 | 0x4385DF649FCCF645ULL;

static inline u128 load128(const uint64_t *w)
{
    return (u128)w[0] << 64 | w[1];
}

static inline void store128(uint64_t *w, u128 x)
{
    w[0] = (uint64_t)(x >> 64);
    w[1] = (uint64_t)x;
}

static inline double pcg64_random(u128 *state, u128 inc)
{
    *state = *state * PCG64_MULT + inc;
    uint64_t hi = (uint64_t)(*state >> 64), x = hi ^ (uint64_t)*state;
    unsigned rot = (unsigned)(hi >> 58);
    x = x >> rot | x << ((64 - rot) & 63);
    return (double)(x >> 11) * (1.0 / 9007199254740992.0);
}

/* M**k and 1 + M + ... + M**(k - 1) mod 2**128, from O(log k) squarings:
 * Brown's jump-ahead (Random number generation with arbitrary strides, 1994),
 * the method of numpy's advance.  k steps take a state s to
 * M**k * s + (1 + M + ... + M**(k - 1)) * inc. */
static void pcg64_jump(int64_t k, u128 *mult, u128 *plus)
{
    u128 cur_mult = PCG64_MULT, cur_plus = 1;
    *mult = 1;
    *plus = 0;
    for (uint64_t left = (uint64_t)k; left > 0; left >>= 1) {
        if (left & 1) {
            *mult *= cur_mult;
            *plus = *plus * cur_mult + cur_plus;
        }
        cur_plus = cur_mult * cur_plus + cur_plus;
        cur_mult *= cur_mult;
    }
}

/* Reward outcomes.  Row i of a realization's n x L table holds uniforms
 * i * L to i * L + L - 1 of its stream, outcome j being u < q_i, so a row
 * can be drawn on its own stream, jumped to i * L, in any number of pieces.
 * A row's stream stands at its next undrawn outcome, and its drawn count
 * says how many it holds.  draw_row is the one drawer: row_streams jumps the
 * rows' streams, draw_rows extends rows, and ucb_auction extends a row in
 * chunks of DRAW_CHUNK when a pick reaches its drawn count.
 *
 * Draws row[*drawn] to row[to - 1] with quality q on the stream at w, and
 * records to as the drawn count. */
static inline void draw_row(uint64_t *w, double q, uint8_t *row, int64_t *drawn, int64_t to)
{
    u128 state = load128(w), inc = load128(w + 2);
    for (int64_t j = *drawn; j < to; j++)
        row[j] = pcg64_random(&state, inc) < q;
    store128(w, state);
    *drawn = to > *drawn ? to : *drawn;
}

/* The outcomes ucb_auction draws at once, from a pick that reaches its row's
 * drawn count, never past the row's capacity.  On the cells of the
 * benchmark's trend-grid workload (master seeds 0-7), where the learner and
 * the baselines read 60.5% of the capacity prefixes, chunks of 64 drew 0.5%
 * more than one at a time, chunks of 256 3.4% and of 1,024 17%; a chunk
 * costs a few loads and stores besides its outcomes. */
#define DRAW_CHUNK 64

/* The streams of m tables of n rows, each row width uniforms long: row i of
 * table t starts at uniform i * width of the stream whose words are at
 * roots + 4 * t, and its words are written at rows + 4 * (t * n + i).
 * Returns 0. */
int row_streams(int64_t m, int64_t n, int64_t width, const uint64_t *roots, uint64_t *rows)
{
    u128 mult, plus;
    pcg64_jump(width, &mult, &plus);
    for (int64_t t = 0; t < m; t++) {
        u128 state = load128(roots + 4 * t), inc = load128(roots + 4 * t + 2);
        u128 step = plus * inc;
        for (int64_t i = 0; i < n; i++) {
            uint64_t *w = rows + 4 * (t * n + i);
            store128(w, state);
            store128(w + 2, inc);
            state = mult * state + step;
        }
    }
    return 0;
}

/* Extends m rows of width outcomes each through to[r] (at most width): row r
 * lies at table + r * width, has quality q[r % n], holds drawn[r] outcomes,
 * and its stream's words are at states + 4 * r.  Returns 0. */
int draw_rows(int64_t m, int64_t n, int64_t width, const double *q, uint64_t *states,
              int64_t *drawn, const int64_t *to, uint8_t *table)
{
    for (int64_t r = 0; r < m; r++)
        draw_row(states + 4 * r, q[r % n], table + r * width, drawn + r,
                 to[r] < width ? to[r] : width);
    return 0;
}

/* The ones in m windows of a table of rows width outcomes long: window w
 * counts table[row[w] * width + j] for start[w] <= j < stop[w] (at most
 * width) into out[w].  An outcome is 0 or 1, so eight of them summed fit the
 * top byte of their word times 0x0101010101010101: a word costs one multiply.
 * Returns 0. */
int count_rows(int64_t m, int64_t width, const uint8_t *table, const int64_t *row,
               const int64_t *start, const int64_t *stop, int64_t *out)
{
    for (int64_t w = 0; w < m; w++) {
        const uint8_t *r = table + row[w] * width;
        int64_t j = start[w], end = stop[w] < width ? stop[w] : width, ones = 0;
        for (; j + 8 <= end; j += 8) {
            uint64_t x;
            memcpy(&x, r + j, sizeof x);
            ones += (int64_t)((x * 0x0101010101010101ULL) >> 56);
        }
        for (; j < end; j++)
            ones += r[j];
        out[w] = ones;
    }
    return 0;
}

/* Runs one auction of n agents over n_rounds rounds.  It reads its n
 * virtual costs at h and its n x n_rounds reward table at table, whose row i
 * holds agent i's outcomes in the order its units are bought; q_hat is its
 * scratch.  With stream, row i holds drawn[i] outcomes: a pick that reaches
 * them first draws the row's next DRAW_CHUNK, never past caps[i], with
 * quality quality[i] on the row's stream at states + 4 * i.  Without, every
 * row is whole, and the three are not read.
 *
 * A seeding pass buys one unit from every agent with capacity; every later
 * round t goes to the agent below capacity with the largest score
 * reward_scale * (q_hat + widths[t] * inv_sqrt[count]) - h, the lowest index
 * on a tie, and the first non-positive best score ends the auction.
 *
 * Writes the units and successes to counts and succ, and the winner, reward
 * and score of round t to entry t - n of picks, rewards and scores while
 * t - n < trace_len; a round t that stops the auction writes only its score:
 * the non-positive best score, or -inf when every agent was at its capacity.
 *
 * The scan takes a new best through a jump (the top of the file).  An empty
 * asm statement in the jump's body keeps it a jump: with a plain if, or
 * __builtin_expect, gcc -O2 turns it into conditional moves.
 *
 * Kept out of line: inlined into ucb_run, gcc 12 laid the loop out so that
 * replays of the benchmark's grid auctions ran about 6% slower, and of the
 * batches of procure2d verify about 9% slower.
 */
static __attribute__((noinline)) void
ucb_auction(int stream, int64_t n, int64_t n_rounds, double reward_scale, const double *h,
            const int64_t *caps, const double *quality, uint64_t *states, int64_t *drawn,
            uint8_t *table, const double *widths, const double *inv_sqrt, int64_t *counts,
            int64_t *succ, double *q_hat, int64_t trace_len, int64_t *picks, uint8_t *rewards,
            double *scores)
{
    for (int64_t i = 0; i < n; i++) {
        counts[i] = caps[i] >= 1;
        if (stream && counts[i] && drawn[i] == 0)
            draw_row(states + 4 * i, quality[i], table + i * n_rounds, drawn + i,
                     DRAW_CHUNK < caps[i] ? DRAW_CHUNK : caps[i]);
        succ[i] = counts[i] ? table[i * n_rounds] : 0;
        q_hat[i] = (double)succ[i];
    }
    for (int64_t t = n; t < n_rounds; t++) {
        double width = widths[t], best = -INFINITY;
        int64_t pick = -1;
        for (int64_t j = 0; j < n; j++) {
            double s = reward_scale * (q_hat[j] + width * inv_sqrt[counts[j]]) - h[j];
            if (counts[j] < caps[j] && s > best) {
                __asm__ volatile("" ::: "memory");
                best = s;
                pick = j;
            }
        }
        if (pick < 0 || best <= 0.0) {
            /* every agent at reported capacity, or no future units for anyone */
            if (t - n < trace_len)
                scores[t - n] = best;
            return;
        }
        if (stream && counts[pick] == drawn[pick]) {
            int64_t to = counts[pick] + DRAW_CHUNK;
            draw_row(states + 4 * pick, quality[pick], table + pick * n_rounds, drawn + pick,
                     to < caps[pick] ? to : caps[pick]);
        }
        uint8_t r = table[pick * n_rounds + counts[pick]];
        succ[pick] += r;
        counts[pick] += 1;
        q_hat[pick] = (double)succ[pick] / (double)counts[pick];
        if (t - n < trace_len) {
            picks[t - n] = pick;
            rewards[t - n] = r;
            scores[t - n] = best;
        }
    }
}

/* p + off, or NULL for a NULL p. */
#define OFFSET(p, off) ((p) ? (p) + (off) : NULL)

/* Stacked auctions that share n, n_rounds and caps, run one at a time:
 * sample s has its h, counts and succ at s * n, its table at s * n * n_rounds
 * and, when traced (trace_len > 0), its trace at s * trace_len.  The rows of
 * streamed tables share quality, and have states samples x n x 4 and drawn
 * samples x n; for whole tables the three are NULL.  Returns 0, or -1 when
 * out of memory. */
int ucb_run(int64_t samples, int64_t n, int64_t n_rounds, double reward_scale,
            const double *h, const int64_t *caps, const double *quality, uint64_t *states,
            int64_t *drawn, uint8_t *table, const double *widths, const double *inv_sqrt,
            int64_t *counts, int64_t *succ, int64_t trace_len, int64_t *picks, uint8_t *rewards,
            double *scores)
{
    double *q_hat = malloc(n * sizeof *q_hat);
    if (q_hat == NULL)
        return -1;
    for (int64_t s = 0; s < samples; s++)
        ucb_auction(drawn != NULL, n, n_rounds, reward_scale, h + s * n, caps, quality,
                    OFFSET(states, 4 * s * n), OFFSET(drawn, s * n), table + s * n * n_rounds,
                    widths, inv_sqrt, counts + s * n, succ + s * n, q_hat, trace_len,
                    picks + s * trace_len, rewards + s * trace_len, scores + s * trace_len);
    free(q_hat);
    return 0;
}

/* numpy's stream seeding, SeedSequence's hash and PCG64's seeding step, and
 * the self-resampling law on the seeded streams. */

/* PCG64's srandom step: the stream of a seed and sequence, each 128 bits,
 * written as its state words, inc = sequence << 1 | 1 and
 * state = (inc + seed) * M + inc mod 2**128. */
static void pcg64_seed(u128 seed, u128 seq, uint64_t *w)
{
    u128 inc = seq << 1 | 1;
    store128(w, (inc + seed) * PCG64_MULT + inc);
    store128(w + 2, inc);
}

/* numpy's SeedSequence hash (numpy/random/bit_generator.pyx) at its default
 * pool size.  hashmix with MULT_A hashes the entropy, with MULT_B
 * generate_state's output. */
#define POOL_SIZE 4
static const uint32_t INIT_A = 0x43B0D7E5, MULT_A = 0x931E8875, INIT_B = 0x8B51F9DD,
                      MULT_B = 0x58F38DED, MIX_MULT_L = 0xCA01F9DD, MIX_MULT_R = 0x4973F715;

static inline uint32_t hashmix(uint32_t value, uint32_t *hash_const, uint32_t mult)
{
    value ^= *hash_const;
    *hash_const *= mult;
    value *= *hash_const;
    return value ^ value >> 16;
}

static inline uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t r = MIX_MULT_L * x - MIX_MULT_R * y;
    return r ^ r >> 16;
}

/* The state words of default_rng(SeedSequence(entropy, spawn_key=key)) for m
 * rows, row r's at states + 4 * r.  The words hold n_pieces pieces end to
 * end, each an entropy or a key as SeedSequence reads it: piece p is
 * lengths[p] words, starting where piece p - 1 ends.  Row r's entropy is
 * piece rows[2r] and its key piece rows[2r + 1].  Returns 0, or -1 when out
 * of memory.
 *
 * A row's words are its entropy's, then, when the key has words, zeros up to
 * POOL_SIZE and the key's.  mix_entropy hashes the first POOL_SIZE words
 * (zeros past the end) into the pool, mixes every pool word into every other,
 * then mixes each later word into every pool word.  generate_state(4, uint64)
 * hashes eight words cycling over the pool, paired little-endian into PCG64's
 * seed and sequence, high word first. */
int seed_streams(int64_t m, const uint32_t *words, int64_t n_pieces, const int64_t *lengths,
                 const int64_t *rows, uint64_t *states)
{
    int64_t *starts = malloc((n_pieces > 0 ? n_pieces : 1) * sizeof *starts);
    if (!starts)
        return -1;
    for (int64_t p = 0, at = 0; p < n_pieces; at += lengths[p++])
        starts[p] = at;
    for (int64_t r = 0; r < m; r++) {
        int64_t e = rows[2 * r], k = rows[2 * r + 1];
        int64_t key_start = lengths[k] > 0 && lengths[e] < POOL_SIZE ? POOL_SIZE : lengths[e];
        int64_t n = key_start + lengths[k];
        uint32_t pool[POOL_SIZE], hash_const = INIT_A;
        for (int64_t j = 0; j < n || j < POOL_SIZE; j++) {
            uint32_t w = j < lengths[e] ? words[starts[e] + j]
                       : j >= key_start && j < n ? words[starts[k] + j - key_start] : 0;
            if (j >= POOL_SIZE) {
                for (int dst = 0; dst < POOL_SIZE; dst++)
                    pool[dst] = mix(pool[dst], hashmix(w, &hash_const, MULT_A));
                continue;
            }
            pool[j] = hashmix(w, &hash_const, MULT_A);
            if (j < POOL_SIZE - 1)
                continue;
            /* the pool is full: mix every pool word into every other */
            for (int src = 0; src < POOL_SIZE; src++) {
                for (int dst = 0; dst < POOL_SIZE; dst++) {
                    if (dst != src)
                        pool[dst] = mix(pool[dst], hashmix(pool[src], &hash_const, MULT_A));
                }
            }
        }
        uint64_t out[2 * POOL_SIZE];
        hash_const = INIT_B;
        for (int i = 0; i < 2 * POOL_SIZE; i++)
            out[i] = hashmix(pool[i % POOL_SIZE], &hash_const, MULT_B);
        u128 seed = (u128)(out[0] | out[1] << 32) << 64 | (out[2] | out[3] << 32);
        u128 seq = (u128)(out[4] | out[5] << 32) << 64 | (out[6] | out[7] << 32);
        pcg64_seed(seed, seq, states + 4 * r);
    }
    free(starts);
    return 0;
}

/* Passes through the recursion after which a stream gives up: the depth is
 * geometric with mean 1 / (1 - mu), so only a broken mu gets near it. */
#define MAX_RESAMPLE_PASSES 1000000

/* size draws of the self-resampler on each of m streams: stream s draws at
 * the bids bids + s * size, below cost_hi[s], into alpha + s * size and
 * beta + s * size, and its end state is written back to states + 4 * s.
 *
 * Pass 0 reads size uniforms, draw j moving when the j-th is below mu, then
 * size more, the j-th placing a moving draw's beta uniformly on
 * [bid, cost_hi].  Each later pass reads 2 * size uniforms: a moving draw
 * keeps moving when its j-th is below mu, and then its alpha moves uniformly
 * on [alpha, cost_hi] by the (size + j)-th.  Every pass reads all its
 * uniforms however few draws still move, so streams seeded alike are
 * coupled draw by draw across bids.  A step is x + u * (cost_hi - x), capped
 * at cost_hi.
 *
 * Returns 0; -3, drawing nothing, when a bid is not at most its cost_hi (a
 * NaN bid or bound included); -1 when out of memory; or -2 when a stream is
 * still moving after MAX_RESAMPLE_PASSES passes. */
int resample(int64_t m, int64_t size, double mu, const double *bids, const double *cost_hi,
             uint64_t *states, double *alpha, double *beta)
{
    for (int64_t s = 0; s < m; s++) {
        for (int64_t j = 0; j < size; j++) {
            if (!(bids[s * size + j] <= cost_hi[s]))
                return -3;
        }
    }
    int64_t *moving = malloc((size > 0 ? size : 1) * sizeof *moving);
    if (moving == NULL)
        return -1;
    int status = 0;
    for (int64_t s = 0; s < m && status == 0; s++) {
        const double *bid = bids + s * size;
        double hi = cost_hi[s], *a = alpha + s * size, *b = beta + s * size;
        u128 state = load128(states + 4 * s), inc = load128(states + 4 * s + 2);
        int64_t n_moving = 0;
        for (int64_t j = 0; j < size; j++) {
            if (pcg64_random(&state, inc) < mu)
                moving[n_moving++] = j;
        }
        for (int64_t j = 0, k = 0; j < size; j++) {
            double u = pcg64_random(&state, inc), x = bid[j];
            if (k < n_moving && moving[k] == j) {
                x = x + u * (hi - x);
                x = x > hi ? hi : x;
                k++;
            }
            a[j] = b[j] = x;
        }
        for (int64_t pass = 0; n_moving > 0;) {
            int64_t kept = 0;
            for (int64_t j = 0, k = 0; j < size; j++) {
                double u = pcg64_random(&state, inc);
                if (k < n_moving && moving[k] == j) {
                    if (u < mu)
                        moving[kept++] = j;
                    k++;
                }
            }
            n_moving = kept;
            for (int64_t j = 0, k = 0; j < size; j++) {
                double u = pcg64_random(&state, inc);
                if (k < n_moving && moving[k] == j) {
                    double x = a[j] + u * (hi - a[j]);
                    a[j] = x > hi ? hi : x;
                    k++;
                }
            }
            if (++pass == MAX_RESAMPLE_PASSES) {
                status = -2;
                break;
            }
        }
        store128(states + 4 * s, state);
    }
    free(moving);
    return status;
}
