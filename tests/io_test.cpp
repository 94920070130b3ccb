/**
 * @file
 * Graph I/O tests: edge-list round trips, DIMACS and MatrixMarket
 * parsing, error handling for malformed inputs, and the buffered
 * scanner's corner cases (CRLF endings, long lines, load telemetry).
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "graph/generators.h"
#include "graph/io.h"
#include "obs/telemetry.h"

namespace crono::graph {
namespace {

namespace gen = generators;

bool
sameGraph(const Graph& a, const Graph& b)
{
    return a.numVertices() == b.numVertices() &&
           a.rawOffsets() == b.rawOffsets() &&
           a.rawNeighbors() == b.rawNeighbors() &&
           a.rawWeights() == b.rawWeights();
}

TEST(GraphIo, EdgeListRoundTripSmall)
{
    const Graph g = gen::ring(8);
    std::stringstream s;
    io::writeEdgeList(s, g);
    const Graph back = io::readEdgeList(s);
    EXPECT_TRUE(sameGraph(g, back));
}

TEST(GraphIo, EdgeListRoundTripRandom)
{
    const Graph g = gen::uniformRandom(200, 1000, 50, 4);
    std::stringstream s;
    io::writeEdgeList(s, g);
    const Graph back = io::readEdgeList(s);
    EXPECT_TRUE(sameGraph(g, back));
}

TEST(GraphIo, EdgeListSkipsComments)
{
    std::stringstream s("# a comment\nel 3 1\n# another\n0 1 5\n1 2 6\n");
    const Graph g = io::readEdgeList(s);
    EXPECT_EQ(g.numVertices(), 3u);
    EXPECT_TRUE(g.hasEdge(0, 1));
    EXPECT_TRUE(g.hasEdge(2, 1));
}

TEST(GraphIo, EdgeListDirectedHeader)
{
    std::stringstream s("el 3 0\n0 1 5\n");
    const Graph g = io::readEdgeList(s);
    EXPECT_TRUE(g.hasEdge(0, 1));
    EXPECT_FALSE(g.hasEdge(1, 0));
}

TEST(GraphIo, EdgeListRejectsMissingHeader)
{
    std::stringstream s("0 1 5\n");
    EXPECT_THROW(io::readEdgeList(s), std::runtime_error);
}

TEST(GraphIo, EdgeListRejectsOutOfRangeVertex)
{
    std::stringstream s("el 3 1\n0 9 5\n");
    EXPECT_THROW(io::readEdgeList(s), std::runtime_error);
}

TEST(GraphIo, EdgeListRejectsMalformedEdge)
{
    std::stringstream s("el 3 1\n0 zebra 5\n");
    EXPECT_THROW(io::readEdgeList(s), std::runtime_error);
}

TEST(GraphIo, DimacsParsesOneIndexedArcs)
{
    std::stringstream s("c road network fragment\n"
                        "p sp 4 3\n"
                        "a 1 2 10\n"
                        "a 2 3 20\n"
                        "a 3 4 30\n");
    const Graph g = io::readDimacs(s);
    EXPECT_EQ(g.numVertices(), 4u);
    EXPECT_TRUE(g.hasEdge(0, 1));
    EXPECT_TRUE(g.hasEdge(3, 2));
    EXPECT_EQ(g.weights(0)[0], 10u);
}

TEST(GraphIo, DimacsRejectsArcBeforeProblem)
{
    std::stringstream s("a 1 2 10\n");
    EXPECT_THROW(io::readDimacs(s), std::runtime_error);
}

TEST(GraphIo, DimacsRejectsZeroIndexedArc)
{
    std::stringstream s("p sp 4 1\na 0 2 10\n");
    EXPECT_THROW(io::readDimacs(s), std::runtime_error);
}

TEST(GraphIo, DimacsRejectsUnknownLine)
{
    std::stringstream s("p sp 2 1\nq 1 2 3\n");
    EXPECT_THROW(io::readDimacs(s), std::runtime_error);
}

TEST(GraphIo, EdgeListAcceptsCrLfLineEndings)
{
    std::stringstream s("el 3 1\r\n0 1 5\r\n1 2 6\r\n");
    const Graph g = io::readEdgeList(s);
    EXPECT_EQ(g.numVertices(), 3u);
    EXPECT_TRUE(g.hasEdge(0, 1));
    EXPECT_TRUE(g.hasEdge(2, 1));
}

TEST(GraphIo, EdgeListAcceptsVeryLongCommentLine)
{
    // Exercises the chunked scanner's buffer-doubling path for lines
    // longer than its refill granularity would otherwise hold.
    std::string text = "# ";
    text.append(1 << 16, 'x');
    text += "\nel 2 1\n0 1 7\n";
    std::stringstream s(text);
    const Graph g = io::readEdgeList(s);
    EXPECT_TRUE(g.hasEdge(0, 1));
}

TEST(GraphIo, EdgeListLargeRoundTrip)
{
    // Big enough to span multiple scanner refills when chunked.
    const Graph g = gen::uniformRandom(5000, 60000, 200, 11);
    std::stringstream s;
    io::writeEdgeList(s, g);
    const Graph back = io::readEdgeList(s);
    EXPECT_TRUE(sameGraph(g, back));
}

TEST(GraphIo, MatrixMarketParsesGeneralInteger)
{
    std::stringstream s("%%MatrixMarket matrix coordinate integer general\n"
                        "% a comment\n"
                        "3 3 3\n"
                        "1 2 5\n"
                        "2 3 6\n"
                        "3 1 7\n");
    const Graph g = io::readMatrixMarket(s);
    EXPECT_EQ(g.numVertices(), 3u);
    EXPECT_TRUE(g.hasEdge(0, 1));
    EXPECT_FALSE(g.hasEdge(1, 0)); // general = directed
    EXPECT_EQ(g.weights(0)[0], 5u);
}

TEST(GraphIo, MatrixMarketSymmetricMirrorsEdges)
{
    std::stringstream s("%%MatrixMarket matrix coordinate real symmetric\n"
                        "3 3 2\n"
                        "2 1 2.6\n"
                        "3 1 0.2\n");
    const Graph g = io::readMatrixMarket(s);
    EXPECT_TRUE(g.hasEdge(0, 1));
    EXPECT_TRUE(g.hasEdge(1, 0));
    EXPECT_EQ(g.weights(1)[0], 3u); // 2.6 rounds to 3
    EXPECT_EQ(g.weights(2)[0], 1u); // |0.2| rounds to 0, clamps to 1
}

TEST(GraphIo, MatrixMarketPatternEntriesWeighOne)
{
    std::stringstream s("%%MatrixMarket matrix coordinate pattern general\n"
                        "2 2 1\n"
                        "1 2\n");
    const Graph g = io::readMatrixMarket(s);
    EXPECT_TRUE(g.hasEdge(0, 1));
    EXPECT_EQ(g.weights(0)[0], 1u);
}

TEST(GraphIo, MatrixMarketDropsDiagonalAndKeepsMinDuplicate)
{
    std::stringstream s("%%MatrixMarket matrix coordinate integer general\n"
                        "2 2 4\n"
                        "1 1 9\n"
                        "1 2 8\n"
                        "1 2 3\n"
                        "2 2 4\n");
    const Graph g = io::readMatrixMarket(s);
    EXPECT_FALSE(g.hasEdge(0, 0));
    ASSERT_EQ(g.neighbors(0).size(), 1u);
    EXPECT_EQ(g.weights(0)[0], 3u);
}

TEST(GraphIo, MatrixMarketRejectsBadBanner)
{
    std::stringstream s("%%MatrixMarket matrix array real general\n"
                        "2 2 1\n1 2 1\n");
    EXPECT_THROW(io::readMatrixMarket(s), std::runtime_error);
}

TEST(GraphIo, MatrixMarketRejectsNonSquare)
{
    std::stringstream s("%%MatrixMarket matrix coordinate integer general\n"
                        "2 3 1\n1 2 1\n");
    EXPECT_THROW(io::readMatrixMarket(s), std::runtime_error);
}

TEST(GraphIo, MatrixMarketRejectsTruncatedEntries)
{
    std::stringstream s("%%MatrixMarket matrix coordinate integer general\n"
                        "3 3 2\n1 2 1\n");
    EXPECT_THROW(io::readMatrixMarket(s), std::runtime_error);
}

TEST(GraphIo, MatrixMarketRejectsExtraEntries)
{
    std::stringstream s("%%MatrixMarket matrix coordinate integer general\n"
                        "3 3 1\n1 2 1\n2 3 1\n");
    EXPECT_THROW(io::readMatrixMarket(s), std::runtime_error);
}

TEST(GraphIo, MatrixMarketRejectsZeroIndex)
{
    std::stringstream s("%%MatrixMarket matrix coordinate integer general\n"
                        "2 2 1\n0 2 1\n");
    EXPECT_THROW(io::readMatrixMarket(s), std::runtime_error);
}

TEST(GraphIo, MatrixMarketRejectsOutOfRangeIndex)
{
    std::stringstream s("%%MatrixMarket matrix coordinate integer general\n"
                        "2 2 1\n1 5 1\n");
    EXPECT_THROW(io::readMatrixMarket(s), std::runtime_error);
}

TEST(GraphIo, MatrixMarketRejectsTrailingJunk)
{
    std::stringstream s("%%MatrixMarket matrix coordinate integer general\n"
                        "2 2 1\n1 2 1 junk\n");
    EXPECT_THROW(io::readMatrixMarket(s), std::runtime_error);
}

TEST(GraphIo, MatrixMarketRejectsNonNumericEntry)
{
    std::stringstream s("%%MatrixMarket matrix coordinate integer general\n"
                        "2 2 1\n1 zebra 1\n");
    EXPECT_THROW(io::readMatrixMarket(s), std::runtime_error);
}

TEST(GraphIo, MatrixMarketFileRoundTrip)
{
    const std::string path = ::testing::TempDir() + "crono_io_test.mtx";
    {
        std::ofstream out(path);
        out << "%%MatrixMarket matrix coordinate integer symmetric\n"
            << "4 4 3\n2 1 5\n3 2 6\n4 3 7\n";
    }
    const Graph g = io::loadMatrixMarket(path);
    EXPECT_EQ(g.numVertices(), 4u);
    EXPECT_TRUE(g.hasEdge(0, 1));
    EXPECT_TRUE(g.hasEdge(1, 0));
}

TEST(GraphIo, LoadRecordsParseTimeCounter)
{
    obs::TelemetrySession session;
    const Graph g = gen::grid(4, 4);
    const std::string path = ::testing::TempDir() + "crono_io_load.el";
    io::saveEdgeList(path, g);
    const Graph back = io::loadEdgeList(path);
    EXPECT_TRUE(sameGraph(g, back));
#if !defined(CRONO_TELEMETRY_DISABLED)
    // The file wrapper records (ceil-to-ms) parse wall-clock.
    EXPECT_GE(session.recorder().totalCounter(obs::Counter::kLoadMs), 1u);
#endif
}

TEST(GraphIo, FileRoundTrip)
{
    const Graph g = gen::grid(5, 5);
    const std::string path = ::testing::TempDir() + "crono_io_test.el";
    io::saveEdgeList(path, g);
    const Graph back = io::loadEdgeList(path);
    EXPECT_TRUE(sameGraph(g, back));
}

TEST(GraphIo, LoadMissingFileThrows)
{
    EXPECT_THROW(io::loadEdgeList("/nonexistent/road.el"),
                 std::runtime_error);
    EXPECT_THROW(io::loadDimacs("/nonexistent/road.gr"),
                 std::runtime_error);
}

} // namespace
} // namespace crono::graph
