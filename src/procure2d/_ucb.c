/* The 2D-UCB allocation rule, the only UCB round loop of procure2d.
 *
 * bandit.py compiles this file on first use with -ffp-contract=off, so that
 * no multiply and add are fused and every score is rounded as Python's float
 * arithmetic rounds it.  The bonus widths sqrt(c ln t) and the table of
 * 1 / sqrt(count) (entry 0 is 0.0) come from the caller, which builds them
 * with math.log and math.sqrt, so the scores carry the same bits as those of
 * the reference loop in tests/oracles.py.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* One auction of n agents over n_rounds rounds.  Row i of the n x n_rounds
 * reward table holds agent i's outcomes in the order its units are bought.
 * A seeding pass buys one unit from every agent with capacity; every later
 * round t goes to the agent below capacity with the largest score
 * reward_scale * (q_hat + widths[t] * inv_sqrt[count]) - h, the lowest index
 * on a tie, and the first non-positive best score ends the auction.
 *
 * Writes each agent's units and successes to counts and succ, and the
 * winner, reward and score of round t to entry t - n of picks, rewards and
 * scores while t - n < trace_len.  Returns the round the auction stopped at,
 * n_rounds when the budget ran out, or -1 when out of memory.  *stop_score
 * gets the non-positive best score that stopped the auction, or -inf when
 * the budget ran out or every agent was at its capacity.
 */
int64_t ucb_run(int64_t n, int64_t n_rounds, double reward_scale,
                const double *h, const int64_t *caps, const uint8_t *table,
                const double *widths, const double *inv_sqrt,
                int64_t *counts, int64_t *succ, int64_t trace_len,
                int64_t *picks, uint8_t *rewards, double *scores,
                double *stop_score)
{
    double *q_hat = malloc(n * sizeof *q_hat);
    if (q_hat == NULL)
        return -1;
    for (int64_t i = 0; i < n; i++) {
        counts[i] = caps[i] >= 1;
        succ[i] = counts[i] ? table[i * n_rounds] : 0;
        q_hat[i] = (double)succ[i];
    }
    *stop_score = -INFINITY;
    int64_t t;
    for (t = n; t < n_rounds; t++) {
        double best = -INFINITY;
        int64_t pick = -1;
        for (int64_t j = 0; j < n; j++) {
            if (counts[j] < caps[j]) {
                double s = reward_scale * (q_hat[j] + widths[t] * inv_sqrt[counts[j]]) - h[j];
                if (s > best) {
                    best = s;
                    pick = j;
                }
            }
        }
        if (pick < 0)
            break; /* every agent at reported capacity */
        if (best <= 0.0) {
            *stop_score = best; /* no future units for anyone */
            break;
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
    free(q_hat);
    return t;
}

/* ucb_run over stacked auctions that share n, n_rounds and caps: h is
 * samples x n, table samples x n x n_rounds, counts and succ samples x n.
 * Returns 0, or -1 when out of memory. */
int ucb_batch(int64_t samples, int64_t n, int64_t n_rounds, double reward_scale,
              const double *h, const int64_t *caps, const uint8_t *table,
              const double *widths, const double *inv_sqrt,
              int64_t *counts, int64_t *succ)
{
    double stop_score;
    for (int64_t s = 0; s < samples; s++) {
        if (ucb_run(n, n_rounds, reward_scale, h + s * n, caps, table + s * n * n_rounds,
                    widths, inv_sqrt, counts + s * n, succ + s * n, 0, NULL, NULL, NULL,
                    &stop_score) < 0)
            return -1;
    }
    return 0;
}
